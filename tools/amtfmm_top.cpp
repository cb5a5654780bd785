// amtfmm_top: live terminal view of a serving world's telemetry.
//
//   amtfmm_serve --telemetry=/tmp/tel ... &
//   amtfmm_top --dir=/tmp/tel               # live, refreshes each interval
//   amtfmm_top --dir=/tmp/tel --once        # one render, then exit
//   amtfmm_top --dir=/tmp/tel --once --prom # Prometheus text exposition
//
// The tool never talks to the serving processes: it polls the snapshot
// file the rank-0 TelemetryAggregator atomically republishes (write tmp +
// rename), so attaching, detaching, or killing the viewer cannot perturb
// the world being observed.  `--prom` emits the text exposition format so
// the same channel feeds a scraper; its grammar is tested by
// TelemetryProm.ExpositionGrammarAndNames.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "runtime/telemetry.hpp"
#include "support/cli.hpp"

namespace {

using namespace amtfmm;

std::vector<TelemetrySample> latest_per_rank(
    const std::vector<std::vector<TelemetrySample>>& series) {
  std::vector<TelemetrySample> latest;
  for (const auto& s : series) {
    if (!s.empty()) latest.push_back(s.back());
  }
  return latest;
}

double rate(const TelemetrySample& s, const char* name) {
  return s.dt_s > 0.0
             ? static_cast<double>(s.window.value(name)) / s.dt_s
             : 0.0;
}

void render_table(const std::vector<std::vector<TelemetrySample>>& series) {
  std::printf("%-5s %9s %9s %9s %9s %10s %10s %9s\n", "rank", "tasks/s",
              "steals/s", "epochs/s", "gas_hw", "ep_p50_us", "ep_p99_us",
              "samples");
  for (const auto& s : series) {
    if (s.empty()) continue;
    const TelemetrySample& cur = s.back();
    double p50 = 0.0, p99 = 0.0;
    if (const auto* h = cur.window.hist("serve.epoch_us")) {
      p50 = histogram_quantile(*h, 0.50);
      p99 = histogram_quantile(*h, 0.99);
    }
    std::printf("%-5u %9.0f %9.0f %9.2f %9llu %10.0f %10.0f %9llu\n",
                cur.rank, rate(cur, "sched.tasks_run"),
                rate(cur, "sched.steal_success"), rate(cur, "serve.epochs"),
                static_cast<unsigned long long>(
                    cur.window.value("gas.objects_hw")),
                p50, p99,
                static_cast<unsigned long long>(cur.seq + 1));
  }
}

int run(int argc, char** argv) {
  Cli cli(
      "Live view of amtfmm_serve telemetry snapshots.\n"
      "  amtfmm_top --dir=/tmp/tel\n"
      "  amtfmm_top --dir=/tmp/tel --once --prom");
  cli.add_flag("dir", std::string(""),
               "telemetry dir (reads DIR/telemetry.json)");
  cli.add_flag("snapshot", std::string(""),
               "snapshot file path (overrides --dir)");
  cli.add_flag("once", false, "render once and exit (default: live loop)");
  cli.add_flag("prom", false,
               "emit Prometheus text exposition instead of the table");
  cli.add_flag("interval", 1.0, "live refresh period in seconds");
  cli.add_flag("timeout", 10.0,
               "--once: seconds to wait for the snapshot file to appear");
  cli.parse(argc, argv);

  std::string path = cli.str("snapshot");
  if (path.empty()) {
    if (cli.str("dir").empty()) {
      std::fprintf(stderr, "amtfmm_top: need --dir or --snapshot\n");
      return 2;
    }
    path = cli.str("dir") + "/telemetry.json";
  }
  const bool once = cli.flag("once");
  const double interval = std::max(0.1, cli.f64("interval"));

  double waited = 0.0;
  for (;;) {
    std::vector<std::vector<TelemetrySample>> series;
    std::string error;
    const bool loaded = telemetry_load_snapshot(path, series, error);
    if (!loaded && once) {
      // A serving world publishes its first snapshot one sample interval
      // in; give it a grace period before declaring failure.
      if (waited < cli.f64("timeout")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        waited += 0.1;
        continue;
      }
      std::fprintf(stderr, "amtfmm_top: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    if (loaded) {
      if (cli.flag("prom")) {
        std::fputs(telemetry_render_prom(latest_per_rank(series)).c_str(),
                   stdout);
      } else {
        if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home
        render_table(series);
      }
      std::fflush(stdout);
      if (once) return 0;
    } else {
      std::printf("\x1b[2J\x1b[Hamtfmm_top: waiting for %s\n", path.c_str());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amtfmm_top: %s\n", e.what());
    return 2;
  }
}
