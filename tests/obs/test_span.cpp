#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <set>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs_test_util.hpp"

namespace kertbn::obs {
namespace {

#ifdef KERTBN_OBS_DISABLED
TEST(Span, CompiledOut) {
  GTEST_SKIP() << "span instrumentation compiled out (KERTBN_OBS=OFF)";
}
#else

using testutil::CollectingSink;
using testutil::ScopedSink;

TEST(Span, RecordsDurationHistogram) {
  auto& reg = MetricsRegistry::instance();
  const std::uint64_t before =
      reg.snapshot().histogram("span.test.unit") != nullptr
          ? reg.snapshot().histogram("span.test.unit")->count
          : 0;
  { KERTBN_SPAN("test.unit"); }
  const MetricsSnapshot after = reg.snapshot();
  const HistogramStats* h = after.histogram("span.test.unit");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, before + 1);
}

TEST(Span, NestedSpansReportParentAndTrace) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  SpanContext outer_ctx;
  {
    KERTBN_SPAN_VAR(outer, "test.outer");
    outer_ctx = outer.context();
    EXPECT_EQ(current_context().span_id, outer_ctx.span_id);
    {
      KERTBN_SPAN_VAR(inner, "test.inner");
      EXPECT_EQ(inner.context().trace_id, outer_ctx.trace_id);
      EXPECT_EQ(current_context().span_id, inner.context().span_id);
    }
    EXPECT_EQ(current_context().span_id, outer_ctx.span_id);
  }
  EXPECT_EQ(current_context().span_id, 0u);

  const auto inner_events = sink->spans_named("test.inner");
  const auto outer_events = sink->spans_named("test.outer");
  ASSERT_EQ(inner_events.size(), 1u);
  ASSERT_EQ(outer_events.size(), 1u);
  EXPECT_EQ(inner_events[0].parent_id, outer_events[0].span_id);
  EXPECT_EQ(inner_events[0].trace_id, outer_events[0].trace_id);
  EXPECT_EQ(outer_events[0].parent_id, 0u);
  EXPECT_EQ(outer_events[0].trace_id, outer_events[0].span_id);
}

TEST(Span, TagsArriveTyped) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  {
    KERTBN_SPAN_VAR(span, "test.tags");
    span.tag("u", std::uint64_t{42});
    span.tag("d", 2.5);
    span.tag("b", true);
    span.tag("s", std::string("hello"));
  }
  const auto events = sink->spans_named("test.tags");
  ASSERT_EQ(events.size(), 1u);
  const obs::SpanEvent& e = events[0];
  ASSERT_EQ(e.tags.size(), 4u);
  EXPECT_EQ(std::get<std::uint64_t>(testutil::find_tag(e, "u")->value), 42u);
  EXPECT_DOUBLE_EQ(std::get<double>(testutil::find_tag(e, "d")->value), 2.5);
  EXPECT_TRUE(std::get<bool>(testutil::find_tag(e, "b")->value));
  EXPECT_EQ(std::get<std::string>(testutil::find_tag(e, "s")->value),
            "hello");
}

TEST(Span, EarlyCloseIsIdempotent) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  {
    KERTBN_SPAN_VAR(span, "test.early");
    span.close();
    span.close();  // no double emission
    EXPECT_EQ(current_context().span_id, 0u);
  }
  EXPECT_EQ(sink->spans_named("test.early").size(), 1u);
}

TEST(Span, DisabledSpansAreInert) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  set_enabled(false);
  {
    KERTBN_SPAN_VAR(span, "test.disabled");
    span.tag("ignored", std::uint64_t{1});
    EXPECT_EQ(current_context().span_id, 0u);
  }
  set_enabled(true);
  EXPECT_TRUE(sink->spans_named("test.disabled").empty());
}

TEST(Span, ContextGuardStitchesAcrossThreadPool) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  ThreadPool pool(2);
  {
    KERTBN_SPAN_VAR(root, "test.pool.root");
    pool.parallel_for(4, [](std::size_t i) {
      KERTBN_SPAN_VAR(child, "test.pool.child");
      child.tag("i", static_cast<std::uint64_t>(i));
    });
  }
  const auto roots = sink->spans_named("test.pool.root");
  const auto children = sink->spans_named("test.pool.child");
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(children.size(), 4u);
  for (const auto& child : children) {
    EXPECT_EQ(child.parent_id, roots[0].span_id);
    EXPECT_EQ(child.trace_id, roots[0].trace_id);
  }
}

// The stress test the tsan preset is pointed at: many tasks, nested spans,
// concurrent closes. Asserts the books balance — every opened span produced
// exactly one event, every parent id refers to a span of the same trace,
// and the thread-local context unwinds fully.
TEST(Span, ThreadPoolStressSpansBalance) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  constexpr std::size_t kTasks = 256;
  constexpr std::size_t kInnerPerTask = 3;
  {
    ThreadPool pool(4);
    KERTBN_SPAN_VAR(root, "stress.root");
    pool.parallel_for(kTasks, [](std::size_t i) {
      KERTBN_SPAN_VAR(task_span, "stress.task");
      task_span.tag("task", static_cast<std::uint64_t>(i));
      for (std::size_t j = 0; j < kInnerPerTask; ++j) {
        KERTBN_SPAN_VAR(inner, "stress.inner");
        inner.tag("j", static_cast<std::uint64_t>(j));
      }
    });
  }
  EXPECT_EQ(current_context().span_id, 0u);

  const auto all = sink->spans();
  const auto roots = sink->spans_named("stress.root");
  const auto tasks = sink->spans_named("stress.task");
  const auto inners = sink->spans_named("stress.inner");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(tasks.size(), kTasks);
  EXPECT_EQ(inners.size(), kTasks * kInnerPerTask);

  // Unique ids: every open produced exactly one close event.
  std::set<std::uint64_t> ids;
  for (const auto& e : all) ids.insert(e.span_id);
  EXPECT_EQ(ids.size(), all.size());

  // Parent consistency: tasks hang off the root, inners off their task,
  // and every event of the stress trace shares the root's trace id.
  const std::uint64_t root_id = roots[0].span_id;
  const std::uint64_t trace = roots[0].trace_id;
  std::set<std::uint64_t> task_ids;
  for (const auto& e : tasks) {
    EXPECT_EQ(e.parent_id, root_id);
    EXPECT_EQ(e.trace_id, trace);
    task_ids.insert(e.span_id);
  }
  for (const auto& e : inners) {
    EXPECT_TRUE(task_ids.count(e.parent_id) == 1);
    EXPECT_EQ(e.trace_id, trace);
  }

  // The registry histograms saw every close as well.
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const HistogramStats* h = snap.histogram("span.stress.inner");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count, kTasks * kInnerPerTask);
}

TEST(Span, PoolQueueMetricsBalance) {
  const MetricsSnapshot before = MetricsRegistry::instance().snapshot();
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) futures.push_back(pool.submit([] {}));
    for (auto& f : futures) f.get();
  }
  const MetricsSnapshot after = MetricsRegistry::instance().snapshot();
  const MetricsSnapshot delta = after.delta_since(before);
  EXPECT_GE(delta.counter("pool.tasks"), 64u);
  // Every enqueued task was dequeued: the depth gauge returns to level.
  EXPECT_DOUBLE_EQ(*after.gauge("pool.queue_depth"),
                   before.gauge("pool.queue_depth").value_or(0.0));
  const HistogramStats* wait = delta.histogram("pool.task_wait_ns");
  const HistogramStats* run = delta.histogram("pool.task_run_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_GE(wait->count, 64u);
  EXPECT_GE(run->count, 64u);
}

// parallel_for queues min(n - 1, size()) helper tasks through the same
// hooks. Helpers that wake after the caller already ran every index still
// dequeue (the pool's destructor drains them), so the books balance too.
TEST(Span, ParallelForQueueMetricsBalance) {
  const MetricsSnapshot before = MetricsRegistry::instance().snapshot();
  {
    ThreadPool pool(2);
    for (int round = 0; round < 8; ++round) {
      pool.parallel_for(64, [](std::size_t) {});
    }
  }
  const MetricsSnapshot after = MetricsRegistry::instance().snapshot();
  const MetricsSnapshot delta = after.delta_since(before);
  EXPECT_GE(delta.counter("pool.tasks"), 8u * 2u);
  EXPECT_DOUBLE_EQ(*after.gauge("pool.queue_depth"),
                   before.gauge("pool.queue_depth").value_or(0.0));
  const HistogramStats* wait = delta.histogram("pool.task_wait_ns");
  const HistogramStats* run = delta.histogram("pool.task_run_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_GE(wait->count, 8u * 2u);
  EXPECT_EQ(wait->count, run->count);
}

#endif  // KERTBN_OBS_DISABLED

}  // namespace
}  // namespace kertbn::obs
