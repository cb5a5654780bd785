#include "runtime/locality_runtime.hpp"

#include "runtime/executor.hpp"

namespace amtfmm {

// Executor's runtime accessors live here because executor.hpp only
// forward-declares LocalityRuntime (the runtime includes executor.hpp for
// Task/CoalesceConfig, so the header dependency must point this way).

Executor::Executor(std::unique_ptr<LocalityRuntime> rt) : rt_(std::move(rt)) {}
Executor::~Executor() = default;

TraceSink& Executor::trace() { return rt_->trace(); }
const TraceSink& Executor::trace() const { return rt_->trace(); }

CounterRegistry& Executor::counters() { return rt_->counters(); }
const CounterRegistry& Executor::counters() const { return rt_->counters(); }

CommStats CommStats::from(const CounterSnapshot& s) {
  CommStats c;
  c.parcels = s.value("comm.parcels");
  c.batches = s.value("comm.batches");
  c.bytes = s.value("comm.bytes");
  c.flush_threshold = s.value("coalesce.flush_threshold");
  c.flush_deadline = s.value("coalesce.flush_deadline");
  c.flush_quiescence = s.value("coalesce.flush_quiescence");
  return c;
}

CommStats Executor::comm_stats() const {
  return CommStats::from(rt_->counters().snapshot());
}

LocalityRuntime& Executor::runtime() { return *rt_; }

}  // namespace amtfmm
