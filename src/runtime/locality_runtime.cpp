#include "runtime/locality_runtime.hpp"

#include "runtime/executor.hpp"

namespace amtfmm {

// Executor's runtime accessors live here because executor.hpp only
// forward-declares LocalityRuntime (the runtime includes executor.hpp for
// Task/CoalesceConfig, so the header dependency must point this way).

Executor::~Executor() = default;

TraceSink& Executor::trace() { return rt_->trace(); }
const TraceSink& Executor::trace() const { return rt_->trace(); }

CounterRegistry& Executor::counters() { return rt_->counters(); }
const CounterRegistry& Executor::counters() const { return rt_->counters(); }

CommStats Executor::comm_stats() const { return rt_->comm_stats(); }

LocalityRuntime& Executor::runtime() { return *rt_; }

}  // namespace amtfmm
