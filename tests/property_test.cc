// Randomized property tests across modules (parameterized gtest sweeps):
// invariants that must hold for arbitrary inputs, not just the curated
// cases in the per-module suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "callback_sink.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "dataflow/graph.h"
#include "dataflow/placer.h"
#include "logic/associative.h"
#include "noc/link_cipher.h"
#include "noc/mesh.h"
#include "runtime/memoization.h"

namespace cim {
namespace {

// --- cipher: roundtrip at arbitrary sizes, keys, nonces ---------------------

class CipherProperty : public ::testing::TestWithParam<int> {};

TEST_P(CipherProperty, RoundTripAndTamperDetection) {
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t key = rng.NextU64();
    const std::uint64_t nonce = rng.NextU64();
    noc::StreamCipher cipher(key);
    std::vector<std::uint8_t> data(GetParam());
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    const std::vector<std::uint8_t> original = data;
    const std::uint32_t tag = cipher.Tag(data, nonce);

    cipher.Apply(data, nonce);
    if (!data.empty()) {
      // Encryption must change the buffer (overwhelmingly likely).
      // Skip the check for tiny buffers where collision odds matter.
      if (data.size() >= 8) {
        EXPECT_NE(data, original);
      }
    }
    cipher.Apply(data, nonce);
    ASSERT_EQ(data, original);
    ASSERT_TRUE(cipher.Verify(data, nonce, tag));
    if (!data.empty()) {
      data[rng.NextBounded(data.size())] ^= 0x01;
      EXPECT_FALSE(cipher.Verify(data, nonce, tag));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CipherProperty,
                         ::testing::Values(0, 1, 7, 8, 63, 256, 4096));

// --- placer: random DAGs always place validly --------------------------------

class PlacerProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlacerProperty, RandomDagsPlaceWithinCapacity) {
  const int node_count = GetParam();
  Rng rng(2000 + node_count);
  for (int trial = 0; trial < 10; ++trial) {
    dataflow::DataflowGraph graph;
    for (int i = 0; i < node_count; ++i) {
      ASSERT_TRUE(graph
                      .AddNode(dataflow::GraphNode{
                          "n" + std::to_string(i),
                          {{arch::OpCode::kNop, 0.0}},
                          std::nullopt})
                      .ok());
    }
    // Random forward edges only (guarantees a DAG).
    for (int i = 1; i < node_count; ++i) {
      const int parents = 1 + static_cast<int>(rng.NextBounded(2));
      for (int p = 0; p < parents; ++p) {
        const int from = static_cast<int>(rng.NextBounded(i));
        (void)graph.AddEdge("n" + std::to_string(from),
                            "n" + std::to_string(i));
      }
    }
    ASSERT_TRUE(graph.Validate().ok());

    dataflow::PlacerParams params;
    params.mesh_width = 4;
    params.mesh_height = 4;
    params.capacity_per_tile =
        (node_count + 15) / 16 + 1;  // always enough capacity
    auto placement = dataflow::PlaceGraph(graph, params);
    ASSERT_TRUE(placement.ok());
    ASSERT_EQ(placement->tiles.size(), static_cast<std::size_t>(node_count));
    // Capacity respected on every tile.
    std::map<std::uint32_t, std::size_t> load;
    for (const auto& [node, tile] : placement->tiles) {
      EXPECT_LT(tile.x, params.mesh_width);
      EXPECT_LT(tile.y, params.mesh_height);
      ++load[(static_cast<std::uint32_t>(tile.y) << 16) | tile.x];
    }
    for (const auto& [tile, count] : load) {
      EXPECT_LE(count, params.capacity_per_tile);
    }
    auto cost = dataflow::PlacementCost(graph, *placement);
    ASSERT_TRUE(cost.ok());
    EXPECT_GE(*cost, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(GraphSizes, PlacerProperty,
                         ::testing::Values(2, 8, 16, 32));

// --- NoC under random faults: no packet is ever duplicated ------------------

class NocFaultProperty : public ::testing::TestWithParam<int> {};

TEST_P(NocFaultProperty, DeliveredPlusDroppedEqualsInjectedNoDuplicates) {
  const int fault_count = GetParam();
  Rng rng(3000 + fault_count);
  EventQueue queue;
  noc::MeshParams params;
  params.width = 5;
  params.height = 5;
  auto mesh = noc::MeshNoc::Create(params, &queue);
  ASSERT_TRUE(mesh.ok());

  std::map<std::uint64_t, int> deliveries;
  noc::CallbackSink sink(
      [&](const noc::Delivery& d) { ++deliveries[d.packet.id]; });
  for (std::uint16_t x = 0; x < 5; ++x) {
    for (std::uint16_t y = 0; y < 5; ++y) mesh->SetDeliverySink({x, y}, &sink);
  }
  // Random link faults.
  for (int f = 0; f < fault_count; ++f) {
    const noc::NodeId node{static_cast<std::uint16_t>(rng.NextBounded(5)),
                           static_cast<std::uint16_t>(rng.NextBounded(5))};
    (void)mesh->SetLinkFailed(
        node, static_cast<noc::Direction>(rng.NextBounded(4)), true);
  }
  for (std::uint64_t id = 1; id <= 200; ++id) {
    noc::Packet p;
    p.id = id;
    p.stream_id = id % 7;
    p.source = {static_cast<std::uint16_t>(rng.NextBounded(5)),
                static_cast<std::uint16_t>(rng.NextBounded(5))};
    p.destination = {static_cast<std::uint16_t>(rng.NextBounded(5)),
                     static_cast<std::uint16_t>(rng.NextBounded(5))};
    p.payload_bytes = 32 + static_cast<std::uint32_t>(rng.NextBounded(128));
    // Injection-time drops (e.g. a fully cut source) return non-ok but are
    // still accounted for in telemetry as injected + dropped.
    (void)mesh->Inject(p);
  }
  queue.Run(1000000);
  for (const auto& [id, count] : deliveries) {
    ASSERT_EQ(count, 1) << "packet " << id << " duplicated";
  }
  EXPECT_EQ(mesh->telemetry().injected, 200u);
  EXPECT_EQ(mesh->telemetry().delivered + mesh->telemetry().dropped,
            mesh->telemetry().injected);
}

INSTANTIATE_TEST_SUITE_P(FaultCounts, NocFaultProperty,
                         ::testing::Values(0, 5, 15, 40));

// --- memo cache: random op streams never exceed capacity --------------------

class MemoProperty : public ::testing::TestWithParam<int> {};

TEST_P(MemoProperty, CapacityInvariantUnderRandomOps) {
  const auto capacity = static_cast<std::size_t>(GetParam());
  runtime::MemoParams params;
  params.capacity_entries = capacity;
  params.write_worthiness = 0.0;  // accept everything
  auto cache = runtime::MemoCache::Create(params);
  ASSERT_TRUE(cache.ok());
  Rng rng(4000 + GetParam());
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t key = rng.NextBounded(capacity * 4);
    if (rng.Bernoulli(0.5)) {
      (void)cache->Lookup(key, 1000.0);
    } else {
      (void)cache->Insert(key, {static_cast<double>(key)}, 1e6);
    }
    ASSERT_LE(cache->size(), capacity);
  }
  // Hits always return the value that was inserted for that key.
  for (std::uint64_t key = 0; key < capacity * 4; ++key) {
    auto hit = cache->Lookup(key, 1000.0);
    if (hit.ok()) {
      ASSERT_EQ(hit->at(0), static_cast<double>(key));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, MemoProperty,
                         ::testing::Values(1, 4, 64));

// --- TCAM: search result equals brute-force reference ------------------------

class TcamProperty : public ::testing::TestWithParam<int> {};

TEST_P(TcamProperty, SearchMatchesBruteForce) {
  const int width = GetParam();
  Rng rng(5000 + width);
  logic::TcamParams params;
  params.rows = 32;
  params.width_bits = width;
  auto tcam = logic::TcamArray::Create(params);
  ASSERT_TRUE(tcam.ok());

  const std::uint64_t width_mask =
      width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stored(32);
  for (std::size_t r = 0; r < 32; ++r) {
    const std::uint64_t key = rng.NextU64() & width_mask;
    const std::uint64_t care = rng.NextU64() & width_mask;
    stored[r] = {key, care};
    ASSERT_TRUE(tcam->WriteRowBits(r, key, care).ok());
  }
  for (int probe_i = 0; probe_i < 50; ++probe_i) {
    const std::uint64_t probe = rng.NextU64() & width_mask;
    const auto result = tcam->SearchBits(probe);
    std::vector<std::size_t> expected;
    for (std::size_t r = 0; r < 32; ++r) {
      const auto [key, care] = stored[r];
      if (((probe ^ key) & care) == 0) expected.push_back(r);
    }
    ASSERT_EQ(result.matches, expected) << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TcamProperty,
                         ::testing::Values(8, 16, 32, 64));

}  // namespace
}  // namespace cim
