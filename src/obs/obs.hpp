// Observability umbrella: instrumentation macros and the HGP_OBS knob.
//
// Library code instruments itself through these macros only, so one
// compile-time switch strips every call site:
//
//   HGP_TRACE_SPAN("solve.trees");           // RAII span, global buffer
//   HGP_TRACE_SPAN_ARG("tree.attempt", i);   // span with a numeric arg
//   HGP_COUNTER_ADD("dp.merge_operations", n);
//   HGP_GAUGE_ADD("pool.queue_depth", +1);
//   HGP_GAUGE_SET("pool.workers", n);
//   HGP_JOURNAL(kRetry, request_id, attempt, arg, status);  // event journal
//   HGP_JOURNAL_SCOPED(kFallbackStage, arg, status);  // ids from the
//                                                     // ambient RequestScope
//   HGP_REQUEST_SCOPE(request_id, attempt);  // RAII thread-local id scope
//
// The CMake option HGP_OBS (default ON) defines HGP_OBS_ENABLED=1|0 for
// every target.  With HGP_OBS=OFF the macros collapse to no-ops — no
// atomic loads, no registry lookups, nothing for the optimizer to keep —
// so release hot paths pay zero for the layer.  The hgp_obs library itself
// still builds either way (exporters and classes stay available to tools).
//
// Names passed to the macros must be string literals: span names are
// stored by pointer, and the counter/gauge macros resolve the registry
// entry once per call site through a function-local static reference.
// Tracing additionally has a runtime switch (TraceBuffer::set_enabled);
// metrics are always collected while compiled in — see metrics.hpp.
#pragma once

#ifndef HGP_OBS_ENABLED
#define HGP_OBS_ENABLED 1
#endif

#if HGP_OBS_ENABLED

#include <cstdint>

#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define HGP_OBS_CONCAT_(a, b) a##b
#define HGP_OBS_CONCAT(a, b) HGP_OBS_CONCAT_(a, b)

#define HGP_TRACE_SPAN(name) \
  ::hgp::obs::TraceSpan HGP_OBS_CONCAT(hgp_obs_span_, __LINE__)(name)

#define HGP_TRACE_SPAN_ARG(name, arg)                           \
  ::hgp::obs::TraceSpan HGP_OBS_CONCAT(hgp_obs_span_, __LINE__)( \
      name, static_cast<std::int64_t>(arg))

#define HGP_COUNTER_ADD(name, delta)                                    \
  do {                                                                  \
    static ::hgp::obs::Counter& HGP_OBS_CONCAT(hgp_obs_ctr_, __LINE__) = \
        ::hgp::obs::MetricsRegistry::global().counter(name);            \
    HGP_OBS_CONCAT(hgp_obs_ctr_, __LINE__)                              \
        .add(static_cast<std::uint64_t>(delta));                        \
  } while (0)

#define HGP_GAUGE_ADD(name, delta)                                      \
  do {                                                                  \
    static ::hgp::obs::Gauge& HGP_OBS_CONCAT(hgp_obs_gge_, __LINE__) =  \
        ::hgp::obs::MetricsRegistry::global().gauge(name);              \
    HGP_OBS_CONCAT(hgp_obs_gge_, __LINE__)                              \
        .add(static_cast<std::int64_t>(delta));                         \
  } while (0)

#define HGP_GAUGE_SET(name, value)                                      \
  do {                                                                  \
    static ::hgp::obs::Gauge& HGP_OBS_CONCAT(hgp_obs_gge_, __LINE__) =  \
        ::hgp::obs::MetricsRegistry::global().gauge(name);              \
    HGP_OBS_CONCAT(hgp_obs_gge_, __LINE__)                              \
        .set(static_cast<std::int64_t>(value));                         \
  } while (0)

/// Journals one typed event into the global EventJournal.  `kind` is a
/// bare EventKind enumerator name (kRetry, kBackoff, ...).
#define HGP_JOURNAL(kind, request_id, attempt, arg, status)             \
  ::hgp::obs::EventJournal::global().record(                            \
      ::hgp::obs::EventKind::kind,                                      \
      static_cast<std::uint64_t>(request_id),                           \
      static_cast<std::uint32_t>(attempt),                              \
      static_cast<std::int64_t>(arg), static_cast<std::uint8_t>(status))

/// Journals under the calling thread's ambient RequestScope ids — for
/// emit sites deep in the solver that are not handed ids explicitly.
#define HGP_JOURNAL_SCOPED(kind, arg, status)                           \
  HGP_JOURNAL(kind, ::hgp::obs::RequestScope::current_request_id(),     \
              ::hgp::obs::RequestScope::current_attempt(), arg, status)

/// Installs the RAII thread-local request/attempt scope for the rest of
/// the enclosing block.
#define HGP_REQUEST_SCOPE(request_id, attempt)                          \
  ::hgp::obs::RequestScope HGP_OBS_CONCAT(hgp_obs_scope_, __LINE__)(    \
      static_cast<std::uint64_t>(request_id),                           \
      static_cast<std::uint32_t>(attempt))

#else  // !HGP_OBS_ENABLED — every site collapses to a no-op statement.
// The (void)sizeof keeps macro arguments "used" without evaluating them.

#define HGP_TRACE_SPAN(name) \
  do { (void)sizeof(name); } while (0)
#define HGP_TRACE_SPAN_ARG(name, arg) \
  do { (void)sizeof(name); (void)sizeof(arg); } while (0)
#define HGP_COUNTER_ADD(name, delta) \
  do { (void)sizeof(name); (void)sizeof(delta); } while (0)
#define HGP_GAUGE_ADD(name, delta) \
  do { (void)sizeof(name); (void)sizeof(delta); } while (0)
#define HGP_GAUGE_SET(name, value) \
  do { (void)sizeof(name); (void)sizeof(value); } while (0)
#define HGP_JOURNAL(kind, request_id, attempt, arg, status)            \
  do {                                                                 \
    (void)sizeof(request_id); (void)sizeof(attempt);                   \
    (void)sizeof(arg); (void)sizeof(status);                           \
  } while (0)
#define HGP_JOURNAL_SCOPED(kind, arg, status) \
  do { (void)sizeof(arg); (void)sizeof(status); } while (0)
#define HGP_REQUEST_SCOPE(request_id, attempt) \
  do { (void)sizeof(request_id); (void)sizeof(attempt); } while (0)

#endif  // HGP_OBS_ENABLED
