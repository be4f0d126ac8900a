#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

using privrec::CsrGraph;
using privrec::EdgeDelta;
using privrec::NodeId;
using privrec::UtilityFunction;
using privrec::UtilityVector;
using privrec::UtilityWorkspace;

thread_local SpanBuffer* tls_buffer = nullptr;
thread_local int32_t tls_parent = -1;
thread_local int64_t tls_request = -1;

class TracingUtility final : public UtilityFunction {
 public:
  explicit TracingUtility(std::unique_ptr<UtilityFunction> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override {
    ScopedSpan span(SpanName::kUtilityCompute);
    return inner_->Compute(graph, target, workspace);
  }

  double SensitivityBound(const CsrGraph& graph) const override {
    ScopedSpan span(SpanName::kUtilitySensitivity);
    return inner_->SensitivityBound(graph);
  }

  double NodeSensitivityBound(const CsrGraph& projected,
                              uint32_t degree_cap) const override {
    ScopedSpan span(SpanName::kUtilitySensitivity);
    return inner_->NodeSensitivityBound(projected, degree_cap);
  }

  bool SupportsIncrementalUpdate() const override {
    return inner_->SupportsIncrementalUpdate();
  }

  UtilityVector ApplyEdgeDelta(const CsrGraph& graph, const EdgeDelta& delta,
                               NodeId target, const UtilityVector& cached,
                               UtilityWorkspace& workspace) const override {
    ScopedSpan span(SpanName::kUtilityPatch);
    return inner_->ApplyEdgeDelta(graph, delta, target, cached, workspace);
  }

  bool SupportsIncrementalBatch() const override {
    return inner_->SupportsIncrementalBatch();
  }

  UtilityVector ApplyEdgeDeltaBatch(const CsrGraph& graph,
                                    std::span<const EdgeDelta> deltas,
                                    NodeId target, const UtilityVector& cached,
                                    UtilityWorkspace& workspace) const override {
    ScopedSpan span(SpanName::kUtilityPatchBatch);
    return inner_->ApplyEdgeDeltaBatch(graph, deltas, target, cached,
                                       workspace);
  }

  bool EdgeDeltaAffects(const CsrGraph& graph, const EdgeDelta& delta,
                        NodeId target,
                        const UtilityVector& cached) const override {
    ScopedSpan span(SpanName::kUtilityAffects);
    return inner_->EdgeDeltaAffects(graph, delta, target, cached);
  }

  bool EdgeDeltaWindowAffects(const CsrGraph& graph,
                              std::span<const EdgeDelta> deltas, NodeId target,
                              const UtilityVector& cached) const override {
    ScopedSpan span(SpanName::kUtilityAffects);
    return inner_->EdgeDeltaWindowAffects(graph, deltas, target, cached);
  }

  void FilterAffectingWindow(const CsrGraph& graph,
                             std::span<const EdgeDelta> deltas, NodeId target,
                             const UtilityVector& cached,
                             std::vector<EdgeDelta>& out) const override {
    ScopedSpan span(SpanName::kUtilityFilter);
    const size_t before = out.size();
    inner_->FilterAffectingWindow(graph, deltas, target, cached, out);
    if (tls_buffer != nullptr) {
      tls_buffer->filter_in += deltas.size();
      tls_buffer->filter_out += out.size() - before;
    }
  }

  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override {
    return inner_->EdgeAlterationsT(graph, target, utilities);
  }

 private:
  std::unique_ptr<UtilityFunction> inner_;
};

}  // namespace

const char* SpanNameString(SpanName name) {
  static constexpr std::array<const char*, kNumSpanNames> kNames = {
      "serve.single",    "serve.list",         "graph.toggle",
      "graph.publish",   "persist.checkpoint", "utility.compute",
      "utility.patch",   "utility.patch_batch", "utility.affects",
      "utility.filter",  "utility.sensitivity"};
  return kNames[static_cast<size_t>(name)];
}

size_t SpanLayer(SpanName name) {
  switch (name) {
    case SpanName::kServeSingle:
    case SpanName::kServeList:
      return 0;
    case SpanName::kGraphToggle:
    case SpanName::kGraphPublish:
      return 2;
    case SpanName::kPersistCheckpoint:
      return 3;
    default:
      return 1;
  }
}

void SetThreadSpanBuffer(SpanBuffer* buffer) {
  tls_buffer = buffer;
  tls_parent = -1;
}

void SetThreadRequest(int64_t request) { tls_request = request; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(SpanName name) : buffer_(tls_buffer) {
  if (buffer_ == nullptr) return;
  index_ = static_cast<int32_t>(buffer_->spans.size());
  saved_parent_ = tls_parent;
  Span span;
  span.name = name;
  span.parent = tls_parent;
  span.request = tls_request;
  span.start_ns = NowNs();
  buffer_->spans.push_back(span);
  tls_parent = index_;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs();
  tls_parent = saved_parent_;
}

std::unique_ptr<UtilityFunction> MakeTracingUtility(
    std::unique_ptr<UtilityFunction> inner) {
  return std::make_unique<TracingUtility>(std::move(inner));
}

SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers) {
  SpanSummary summary;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double duration =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      summary.durations_ns[static_cast<size_t>(spans[i].name)].push_back(
          duration);
      summary.self_ns[SpanLayer(spans[i].name)] += duration - child_ns[i];
    }
    summary.filter_in += buffer->filter_in;
    summary.filter_out += buffer->filter_out;
  }
  return summary;
}

privrec::Status WriteSpans(const std::string& path,
                           const std::vector<const SpanBuffer*>& buffers,
                           int64_t origin_ns) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return privrec::Status::IOError("cannot write span dump " + path);
  }
  std::fprintf(out, "thread\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t t = 0; t < buffers.size(); ++t) {
    for (const Span& span : buffers[t]->spans) {
      std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%d\t%lld\n", t,
                   SpanNameString(span.name),
                   static_cast<long long>(span.start_ns - origin_ns),
                   static_cast<long long>(span.end_ns - origin_ns),
                   span.parent, static_cast<long long>(span.request));
    }
  }
  return std::fclose(out) == 0
             ? privrec::Status::OK()
             : privrec::Status::IOError("cannot close span dump " + path);
}

}  // namespace perfbench
