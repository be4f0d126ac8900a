#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "utility/utility_function.h"

namespace perfbench {

/// Every span the traced run records. Names are "<layer>.<what>"; the
/// layer prefix is what self times are summed by.
enum class SpanName : uint8_t {
  kServeSingle,
  kServeList,
  kGraphToggle,
  kGraphPublish,
  kPersistCheckpoint,
  kUtilityCompute,
  kUtilityPatch,
  kUtilityPatchBatch,
  kUtilityAffects,
  kUtilityFilter,
  kUtilitySensitivity,
  kCount,
};

inline constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);

const char* SpanNameString(SpanName name);

/// The layers spans are attributed to, in report order.
inline constexpr std::array<const char*, 4> kLayers = {"serve", "utility",
                                                       "graph", "persist"};
size_t SpanLayer(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the request (schedule op) the span belongs to.
  int64_t request = -1;
  /// Index of the enclosing span in the same buffer; -1 for a root.
  int32_t parent = -1;
  SpanName name = SpanName::kServeSingle;
};

/// One thread's spans, appended only by that thread and read after it
/// has been joined.
struct SpanBuffer {
  std::vector<Span> spans;
  /// Deltas handed to / kept by UtilityFunction::FilterAffectingWindow.
  uint64_t filter_in = 0;
  uint64_t filter_out = 0;
};

/// Makes `buffer` the calling thread's span sink; nullptr turns recording
/// off for the thread. The buffer must outlive its installation.
void SetThreadSpanBuffer(SpanBuffer* buffer);

/// Request id stamped on the spans the calling thread opens next.
void SetThreadRequest(int64_t request);

/// Nanoseconds on the steady clock; the time base of every span.
int64_t NowNs();

/// Records one span around its scope into the thread's buffer, as a child
/// of the thread's innermost open span. A no-op when recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_ = -1;
  int32_t saved_parent_ = -1;
};

/// Wraps `inner` in a UtilityFunction that forwards every virtual and
/// records a utility.* span around each call that does work, so the real
/// serve path is timed from outside the library.
std::unique_ptr<privrec::UtilityFunction> MakeTracingUtility(
    std::unique_ptr<privrec::UtilityFunction> inner);

/// Per-name span durations (ns) and per-layer self time (ns: a span's
/// duration minus the part its children cover), over all buffers.
struct SpanSummary {
  std::array<std::vector<double>, kNumSpanNames> durations_ns;
  std::array<double, kLayers.size()> self_ns{};
  uint64_t filter_in = 0;
  uint64_t filter_out = 0;
};
SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as one tab-separated line: thread, name, start_ns,
/// end_ns (relative to origin_ns), parent index, request id.
privrec::Status WriteSpans(const std::string& path,
                           const std::vector<const SpanBuffer*>& buffers,
                           int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
