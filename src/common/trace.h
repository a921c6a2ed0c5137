#ifndef BG3_COMMON_TRACE_H_
#define BG3_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/op_context.h"
#include "common/op_stats.h"

namespace bg3 {

// ---------------------------------------------------------------------------
// Global observability switches, packed into one atomic word so the
// BG3_SCOPE fast path is a single relaxed load + branch (~1 ns) when
// everything is off. Defaults: timing on, tracing off, slow-op log off.
// Environment overrides, read once at process start:
//   BG3_TIMED_SCOPES=0      disable per-scope latency histograms
//   BG3_TRACE=1             enable trace-event recording
//   BG3_TRACE_FILE=path     where ExportToEnvFile() writes the chrome JSON
//   BG3_TRACE_BUF_EVENTS=N  per-thread ring capacity (events)
//   BG3_SLOW_OP_US=N        log + retain top-level ops slower than N
// ---------------------------------------------------------------------------
namespace obs {

inline constexpr uint32_t kTimingBit = 1u;
inline constexpr uint32_t kTraceBit = 2u;
inline constexpr uint32_t kSlowOpBit = 4u;
/// Set while at least one traced request (OpContext::Traced + a root
/// obs::Scope) is in flight anywhere in the process; makes every scope
/// check its thread's trace binding. Maintained by the root scopes, never
/// by hand.
inline constexpr uint32_t kReqTraceBit = 8u;

namespace internal {
/// Bit set of the flags above; mutate via the setters only.
extern std::atomic<uint32_t> g_flags;
/// Forces the env-var read before first use (harmless to call repeatedly).
void EnsureInitFromEnv();
}  // namespace internal

inline uint32_t Flags() {
  return internal::g_flags.load(std::memory_order_relaxed);
}
inline bool TimingEnabled() { return Flags() & kTimingBit; }

void SetTimingEnabled(bool on);

}  // namespace obs

namespace trace {

/// Process-unique nonzero trace id (also reachable as
/// bg3::trace::NewTraceId() via op_context.h's forward declaration).
uint64_t NewTraceId();

/// One completed span inside a retained trace. `name` is the span's string
/// literal; parent_id 0 marks the root.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

/// A fully retained request trace: the root op plus every span (across all
/// threads that carried a TraceBinding for it), kept when the root exceeded
/// the slow-op threshold — tail-based sampling — or unconditionally when the
/// threshold is 0.
struct SlowTrace {
  uint64_t trace_id = 0;
  std::string root_name;
  std::string workload_class;
  uint64_t root_start_ns = 0;
  uint64_t root_dur_ns = 0;
  uint64_t dropped_spans = 0;  ///< spans lost to the per-trace cap.
  std::vector<SpanRecord> spans;
};

/// Process-wide trace facility, two recording planes:
///
///  - **Firehose** (BG3_TRACE=1): every thread records fixed-size events
///    into its own lock-free ring buffer (single-writer; overwrites oldest
///    on wrap); ExportChromeJson() merges all rings into a
///    chrome://tracing-loadable JSON document.
///  - **Per-request** (OpContext::Traced + a root obs::Scope): spans are
///    additionally keyed by trace id with parent/child causality and
///    buffered per trace; when the root ends, the whole tree is retained iff
///    the root was slow (tail-based), and served from RetainedTraces() /
///    `/tracez`.
///
/// Event `name` pointers must be string literals (or otherwise immortal):
/// both planes store the pointer, not a copy.
///
/// Ring export concurrent with active writers is safe (all slot accesses
/// are relaxed atomics) but a thread wrapping its ring mid-export can tear
/// an event; export at quiescence for exact output. Tests and benches do.
class Trace {
 public:
  static bool Enabled() { return obs::Flags() & obs::kTraceBit; }
  static void SetEnabled(bool on);

  /// Tail-sampling control. Threshold > 0: retain (and log) only traces
  /// whose root exceeds it; 0: retain every traced request, disable the
  /// slow-op log for untraced spans.
  static void SetSlowOpThresholdNs(uint64_t ns);
  static uint64_t SlowOpThresholdNs();
  /// Top-level spans that exceeded the threshold so far (also a counter
  /// metric, `bg3.trace.slow_ops`).
  static uint64_t SlowOpCount();

  /// Merges every thread's ring into {"traceEvents":[...]} JSON.
  static std::string ExportChromeJson();
  /// ExportChromeJson() to `path`; false on I/O error.
  static bool WriteChromeJson(const std::string& path);
  /// Writes to $BG3_TRACE_FILE (default `bg3_trace.json`) if tracing is
  /// enabled; returns the path written, empty string if disabled/failed.
  static std::string ExportToEnvFile();

  /// Copies of the currently retained slow traces, newest last.
  static std::vector<SlowTrace> RetainedTraces();
  /// `/tracez` document: a chrome://tracing-loadable {"traceEvents":[...]}
  /// (each event carries trace/span/parent ids in "args") plus a per-trace
  /// summary table under "traces".
  static std::string RenderTracez();

  /// Clears all rings, per-request captures, retained traces, and the
  /// slow-op count (keeps enabled state). Rings of exited threads are
  /// garbage-collected here.
  static void Reset();

  /// Ring capacity (events) for rings created *after* the call — i.e. for
  /// threads that have not traced yet. Testing wraparound uses a tiny ring
  /// on a fresh thread.
  static void SetRingCapacityForTesting(size_t events);

  /// Events currently held across all rings (post-wrap rings report their
  /// full capacity).
  static size_t EventCountForTesting();
};

/// Trace id + innermost span id bound to the calling thread (0/0 when the
/// thread is not carrying a traced request). Capture these before handing
/// work to another thread, then install them there with TraceBinding so the
/// worker's spans join the same trace under the right parent.
uint64_t CurrentTraceId();
uint64_t CurrentSpanId();

/// RAII cross-thread trace propagation: binds {trace_id, parent_span_id}
/// to the current thread for the scope's lifetime, restoring the previous
/// binding on exit. Spans recorded while bound attach to `trace_id` as
/// children of `parent_span_id`.
class TraceBinding {
 public:
  TraceBinding(uint64_t trace_id, uint64_t parent_span_id,
               const char* workload_class = nullptr);
  ~TraceBinding();

  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  uint64_t prev_trace_id_;
  uint64_t prev_span_id_;
  const char* prev_class_;
};

}  // namespace trace

namespace obs {

/// The one instrumentation scope (DESIGN.md §5.3). For its lifetime it:
///  - stamps the thread's OpLayer (restored on exit), so cloud I/O issued
///    inside bills to this layer in the request's OpStats;
///  - with timing on, records its wall time (ns) into `hist`;
///  - with tracing, the slow-op log or a traced request in flight, emits
///    one span named `name` (firehose ring, slow-op log, and the bound
///    trace's capture);
///  - given a traced `ctx` on a thread not yet bound to that trace, becomes
///    the request root: binds the trace to the thread, and on exit makes
///    the tail-based retention decision and folds ctx->stats into
///    CostAccounting::Default(). Every other scope is a child span.
///
/// Cost model (observability_test, DESIGN.md §5.3): everything off and no
/// traced ctx — one relaxed flag load + branch plus the layer stamp (a
/// thread-local store each way), ~1 ns; timing on — two clock reads and a
/// sharded histogram record, ~50 ns; tracing on — plus one ring emit.
///
/// Spell it with BG3_SCOPE. The layer-only constructor serves paths that
/// bill I/O to a layer without being timed on their own (retry wrappers,
/// background workers).
class Scope {
 public:
  explicit Scope(OpLayer layer) : prev_layer_(bg3::internal::TlsOpLayer()) {
    bg3::internal::TlsOpLayer() = layer;
  }

  Scope(Histogram* hist, const char* name, OpLayer layer,
        const OpContext* ctx = nullptr)
      : prev_layer_(bg3::internal::TlsOpLayer()) {
    bg3::internal::TlsOpLayer() = layer;
    const uint32_t flags = Flags();
    const bool traced = ctx != nullptr && ctx->trace_id != 0;
    if (flags == 0 && !traced) return;
    start_ns_ = NowNanos();
    if (flags & kTimingBit) hist_ = hist;
    if (traced || (flags & (kTraceBit | kSlowOpBit | kReqTraceBit))) {
      BeginSpan(name, traced ? ctx : nullptr);
    }
  }

  ~Scope() {
    if (start_ns_ != 0) {
      const uint64_t end_ns = NowNanos();
      if (hist_ != nullptr) hist_->Record(end_ns - start_ns_);
      if (name_ != nullptr) EndSpan(end_ns);
    }
    bg3::internal::TlsOpLayer() = prev_layer_;
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void BeginSpan(const char* name, const OpContext* traced_ctx);
  void EndSpan(uint64_t end_ns);

  // Only start_ns_, hist_ and name_ are read on the way out when nothing is
  // on; the span fields are written by BeginSpan before any use.
  uint64_t start_ns_ = 0;  ///< 0: nothing to record on exit.
  Histogram* hist_ = nullptr;
  const char* name_ = nullptr;  ///< non-null while a span is open.
  const OpContext* root_ctx_;   ///< the request this scope roots, or null.
  uint64_t span_id_;            ///< nonzero only when bound to a trace.
  uint64_t parent_id_;
  // Thread binding saved by a root, restored when the root ends.
  uint64_t prev_trace_id_;
  uint64_t prev_span_id_;
  const char* prev_class_;
  const OpLayer prev_layer_;
};

}  // namespace obs
}  // namespace bg3

#define BG3_OBS_CONCAT_INNER(a, b) a##b
#define BG3_OBS_CONCAT(a, b) BG3_OBS_CONCAT_INNER(a, b)

/// BG3_SCOPE(name_literal, layer[, ctx]): an obs::Scope over the rest of
/// the enclosing block. `name_literal` must be a string literal,
/// conventionally `bg3.<layer>.<op>`; it names the span, and the latency
/// histogram is `<name_literal>_ns` in the default registry (resolved once
/// per call site). Pass `ctx` only at public API entries that accept an
/// OpContext: those are the scopes that can become request roots.
#define BG3_SCOPE(name_literal, ...)                                       \
  static ::bg3::Histogram* const BG3_OBS_CONCAT(bg3_scope_hist_,           \
                                                __LINE__) =                \
      ::bg3::MetricsRegistry::Default().GetHistogram(name_literal "_ns");  \
  ::bg3::obs::Scope BG3_OBS_CONCAT(bg3_scope_, __LINE__)(                  \
      BG3_OBS_CONCAT(bg3_scope_hist_, __LINE__), name_literal, __VA_ARGS__)

#endif  // BG3_COMMON_TRACE_H_
