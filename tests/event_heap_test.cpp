// Ordering contract of the engine's event queue (sim/event_heap.h).
//
// The golden suite is sensitive to the heap's same-cycle tie order, so the
// contract under test is stronger than "a time-sorted order": pop order must
// be a pure function of the heap-op sequence (deterministic), and
// drain_same_cycle() must yield exactly the sequence repeated top()/pop()
// would have produced — including ties — so push-free consumers can batch
// without perturbing anything the goldens pin.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/event_heap.h"

namespace ndp {
namespace {

bool same_event(const EngineEvent& a, const EngineEvent& b) {
  return a.time == b.time && a.core == b.core && a.slot == b.slot;
}

TEST(EventHeap, PopsInNonDecreasingTimeOrder) {
  Rng rng(42);
  EventHeap pq(256);
  for (unsigned i = 0; i < 256; ++i)
    pq.push(EngineEvent{rng.below(64), static_cast<unsigned>(rng.below(8)),
                        static_cast<unsigned>(rng.below(4))});
  Cycle last = 0;
  while (!pq.empty()) {
    EXPECT_GE(pq.top().time, last);
    last = pq.top().time;
    pq.pop();
  }
}

TEST(EventHeap, CountersTrackPushesAndPeak) {
  EventHeap pq(8);
  EXPECT_EQ(pq.pushes(), 0u);
  EXPECT_EQ(pq.peak(), 0u);
  pq.push(EngineEvent{3, 0, EventHeap::kIssueSlot});
  pq.push(EngineEvent{1, 1, 0});
  pq.push(EngineEvent{2, 0, 1});
  EXPECT_EQ(pq.pushes(), 3u);
  EXPECT_EQ(pq.peak(), 3u);
  pq.pop();
  pq.pop();
  pq.push(EngineEvent{9, 2, 0});
  // Peak is a high-water mark, not the current size.
  EXPECT_EQ(pq.pushes(), 4u);
  EXPECT_EQ(pq.peak(), 3u);
  EXPECT_EQ(pq.size(), 2u);
}

// Pop order — including the order of same-cycle ties — is a deterministic
// function of the push/pop sequence. Two heaps fed identical op sequences
// must produce identical event sequences, field for field. This is the
// property that lets the golden grids pin simulated results at all.
TEST(EventHeap, TieOrderIsDeterministic) {
  for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    Rng rng_a(seed), rng_b(seed);
    EventHeap a(512), b(512);
    std::vector<EngineEvent> seq_a, seq_b;
    auto step = [](Rng& rng, EventHeap& pq, std::vector<EngineEvent>& seq) {
      // Heavy tie pressure: only 4 distinct times across 300 ops.
      if (pq.empty() || rng.below(3) != 0) {
        pq.push(EngineEvent{rng.below(4), static_cast<unsigned>(rng.below(8)),
                            static_cast<unsigned>(rng.below(4))});
      } else {
        seq.push_back(pq.top());
        pq.pop();
      }
    };
    for (unsigned i = 0; i < 300; ++i) {
      step(rng_a, a, seq_a);
      step(rng_b, b, seq_b);
    }
    while (!a.empty()) {
      seq_a.push_back(a.top());
      a.pop();
    }
    while (!b.empty()) {
      seq_b.push_back(b.top());
      b.pop();
    }
    ASSERT_EQ(seq_a.size(), seq_b.size());
    for (std::size_t i = 0; i < seq_a.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(same_event(seq_a[i], seq_b[i]));
    }
  }
}

// drain_same_cycle() == repeated top()/pop() until the time changes, against
// an independently maintained reference heap — same events, same tie order,
// same returned cycle. Interleaves fresh pushes between drains (the allowed
// regime: pushes land between batches, never during one).
TEST(EventHeap, DrainSameCycleMatchesRepeatedPop) {
  Rng rng(99);
  EventHeap drained(512), reference(512);
  // Seed both with an identical tie-heavy population.
  for (unsigned i = 0; i < 64; ++i) {
    const EngineEvent e{rng.below(8), static_cast<unsigned>(rng.below(8)),
                        static_cast<unsigned>(rng.below(4))};
    drained.push(e);
    reference.push(e);
  }
  std::vector<EngineEvent> batch;
  Cycle next_time = 100;  // future-cycle pushes between batches
  unsigned push_rounds = 0;
  while (!drained.empty()) {
    batch.clear();
    const Cycle now = drained.drain_same_cycle(batch);
    ASSERT_FALSE(batch.empty());
    for (const EngineEvent& e : batch) {
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(reference.top().time, now);
      EXPECT_TRUE(same_event(reference.top(), e));
      reference.pop();
    }
    // The batch really was exhaustive: nothing at `now` remains.
    if (!drained.empty()) {
      EXPECT_GT(drained.top().time, now);
    }
    if (!reference.empty()) {
      EXPECT_GT(reference.top().time, now);
    }
    // Occasionally push identical future-cycle work into both heaps
    // (bounded rounds, so draining always outpaces refilling).
    if (push_rounds < 32 && rng.below(2) == 0) {
      ++push_rounds;
      for (unsigned k = 0; k < 4; ++k) {
        const EngineEvent e{next_time + rng.below(4),
                            static_cast<unsigned>(rng.below(8)),
                            static_cast<unsigned>(rng.below(4))};
        drained.push(e);
        reference.push(e);
      }
      next_time += 8;
    }
  }
  EXPECT_TRUE(reference.empty());
}

// The scratch vector is appended to, never cleared — the caller owns reuse.
TEST(EventHeap, DrainAppendsWithoutClearing) {
  EventHeap pq(4);
  pq.push(EngineEvent{5, 1, 0});
  pq.push(EngineEvent{5, 2, 1});
  std::vector<EngineEvent> out;
  out.push_back(EngineEvent{0, 99, 99});  // sentinel survives the drain
  const Cycle now = pq.drain_same_cycle(out);
  EXPECT_EQ(now, 5u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].core, 99u);
  EXPECT_EQ(out[1].time, 5u);
  EXPECT_EQ(out[2].time, 5u);
  EXPECT_TRUE(pq.empty());
}

}  // namespace
}  // namespace ndp
