// Differential tests of the resident engine's arrival walk (docs/engine.md):
// an ingest walks each component that only gained arrivals down its
// refinement path instead of reopening it, pending only the nodes whose
// refinement the arrivals may change. Every published snapshot must still be
// byte-identical to the one-batch reference, whatever the walk kept, grew,
// built or pended, at any thread and shard count, and a walk the request's
// SLO stops leaves the previous generation serving.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/function_sequence.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/run_controller.h"

namespace adalsh {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr int kShardCounts[] = {1, 2, 4};
constexpr int kTopK = 5;

/// Records whose similarity nests: families of entities share part of a
/// core, so a family collides at level 1 and its entities split deeper.
/// Near misses of a family's large entity split off at deeper levels of its
/// hash-certified path, bridge records mix two entities of a family, and
/// link records mix two families, so arrivals bridge children and join
/// level-1 components. Entity sizes span the jump-to-P point, so some nodes
/// are refined by P and grow past it. Matched by Leaf(0, 0.5).
GeneratedDataset FamilyDataset(uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0xfa3117));
  Dataset dataset("families");
  uint64_t next_token = 1;
  auto fresh = [&](size_t n) {
    std::vector<uint64_t> tokens;
    for (size_t i = 0; i < n; ++i) tokens.push_back(next_token++);
    return tokens;
  };
  EntityId entity = 0;
  auto add = [&](std::vector<uint64_t> tokens, EntityId id) {
    std::vector<Field> fields;
    fields.push_back(Field::TokenSet(std::move(tokens)));
    dataset.AddRecord(Record(std::move(fields)), id);
  };
  // A noisy copy: two tokens replaced by fresh ones.
  auto noisy = [&](std::vector<uint64_t> tokens) {
    for (int i = 0; i < 2; ++i) {
      tokens[rng.NextBelow(tokens.size())] = next_token++;
    }
    return tokens;
  };
  std::vector<std::vector<uint64_t>> family_cores;
  for (int family = 0; family < 4; ++family) {
    const std::vector<uint64_t> core = fresh(40);
    family_cores.push_back(core);
    std::vector<std::vector<uint64_t>> entity_cores;
    const size_t entities = 2 + rng.NextBelow(2);
    for (size_t e = 0; e < entities; ++e) {
      std::vector<uint64_t> own = core;
      const size_t replaced = 6 + 4 * rng.NextBelow(3);
      for (size_t i = 0; i < replaced; ++i) {
        own[(e * 14 + i) % 40] = next_token++;
      }
      entity_cores.push_back(own);
      // The first entity is large enough to be certified by hashing.
      const size_t size = e == 0 ? 9 + rng.NextBelow(4) : 2 + rng.NextBelow(10);
      for (size_t r = 0; r < size; ++r) add(noisy(own), entity);
      ++entity;
    }
    // Near misses of the first entity: they collide with it at the cheap
    // levels and split off deeper, without matching it.
    for (size_t kept : {18, 22, 26}) {
      std::vector<uint64_t> near(entity_cores[0].begin(),
                                 entity_cores[0].begin() + kept);
      const std::vector<uint64_t> rest = fresh(40 - kept);
      near.insert(near.end(), rest.begin(), rest.end());
      add(near, entity++);
    }
    // Bridges: halves of two entities of the family.
    for (size_t b = 0; b < 2; ++b) {
      const std::vector<uint64_t>& x = entity_cores[0];
      const std::vector<uint64_t>& y = entity_cores[1 + b % (entities - 1)];
      std::vector<uint64_t> mix(x.begin(), x.begin() + 20);
      mix.insert(mix.end(), y.begin() + 20, y.end());
      add(noisy(mix), entity++);
    }
  }
  // Links: halves of two families' cores.
  for (size_t l = 0; l < 3; ++l) {
    const std::vector<uint64_t>& x = family_cores[l];
    const std::vector<uint64_t>& y = family_cores[l + 1];
    std::vector<uint64_t> mix(x.begin(), x.begin() + 20);
    mix.insert(mix.end(), y.begin() + 20, y.end());
    add(noisy(mix), entity++);
  }
  for (size_t s = 0; s < 4; ++s) add(fresh(40), entity++);
  return GeneratedDataset(std::move(dataset), MatchRule::Leaf(0, 0.5));
}

/// One step of a walk history, drawn from the seed alone so every thread
/// and shard count replays the same one.
struct Mutation {
  enum Kind { kIngest, kRemove, kUpdate, kFlush } kind;
  std::vector<size_t> records;  // source indices (ingest; update: one)
  std::vector<size_t> targets;  // positions into the ingested-id list
};

/// Small ingests in shuffled order, with an occasional removal, update or
/// flush: most batches walk, the rest pend at level 1.
std::vector<Mutation> WalkHistory(size_t num_records, uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0x3a1c));
  std::vector<size_t> order(num_records);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<Mutation> history;
  size_t pos = 0;
  size_t ingested = 0;
  while (pos < order.size()) {
    Mutation ingest{Mutation::kIngest, {}, {}};
    const size_t batch =
        1 + rng.NextBelow(std::min<uint64_t>(order.size() - pos, 4));
    for (size_t i = 0; i < batch; ++i) ingest.records.push_back(order[pos++]);
    ingested += batch;
    history.push_back(ingest);
    const uint64_t roll = rng.NextBelow(12);
    if (roll == 0) {
      history.push_back({Mutation::kRemove, {}, {rng.NextBelow(ingested)}});
    } else if (roll == 1) {
      history.push_back({Mutation::kUpdate,
                         {rng.NextBelow(num_records)},
                         {rng.NextBelow(ingested)}});
    } else if (roll < 5) {
      history.push_back({Mutation::kFlush, {}, {}});
    }
  }
  history.push_back({Mutation::kFlush, {}, {}});
  return history;
}

/// Drives `engine` through `history`, calling `check(live)` at every
/// published snapshot: after each mutation at S=1, after each flush at
/// S >= 2. Ingested ids are kept in order; a removal or update of an id no
/// longer live is skipped.
template <typename Check>
void Drive(ShardedEngine* engine, const Dataset& source,
           const std::vector<Mutation>& history, Check check) {
  test::LiveMap live;
  std::vector<ExternalId> ids;
  const bool publishes_every_mutation = engine->shards() == 1;
  for (const Mutation& m : history) {
    bool mutated = true;
    switch (m.kind) {
      case Mutation::kIngest: {
        std::vector<Record> records;
        for (size_t index : m.records) records.push_back(source.record(index));
        auto ingested = engine->Ingest(std::move(records));
        ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
        for (size_t i = 0; i < m.records.size(); ++i) {
          const ExternalId id = ingested.value().assigned_ids[i];
          live[id] = m.records[i];
          ids.push_back(id);
        }
        break;
      }
      case Mutation::kRemove: {
        const ExternalId id = ids[m.targets[0]];
        if (live.count(id) == 0) {
          mutated = false;
          break;
        }
        ASSERT_TRUE(engine->Remove(std::vector<ExternalId>{id}).ok());
        live.erase(id);
        break;
      }
      case Mutation::kUpdate: {
        const ExternalId id = ids[m.targets[0]];
        if (live.count(id) == 0) {
          mutated = false;
          break;
        }
        ASSERT_TRUE(engine->Update(id, source.record(m.records[0])).ok());
        live[id] = m.records[0];
        break;
      }
      case Mutation::kFlush:
        ASSERT_TRUE(engine->Flush().ok());
        break;
    }
    if (mutated && (publishes_every_mutation || m.kind == Mutation::kFlush)) {
      check(live);
    }
  }
}

/// Sums every `engine_walk` and `engine_reopen` span argument of `trace`.
std::map<std::string, double> WalkOutcomes(const TraceRecorder& trace) {
  std::map<std::string, double> outcomes;
  for (const TraceRecorder::SpanRecord& span : trace.Spans()) {
    if (span.name != "engine_walk" && span.name != "engine_reopen") continue;
    for (const auto& [key, value] : span.args) outcomes[key] += value;
  }
  return outcomes;
}

TEST(EngineWalkTest, EveryPublishedSnapshotIsTheOneBatchReference) {
  std::map<std::string, double> outcomes;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const GeneratedDataset generated = FamilyDataset(seed);
    const std::vector<Mutation> history =
        WalkHistory(generated.dataset.num_records(), seed);
    // The history is engine-independent, so each live set's reference is
    // computed once and every configuration is held to it.
    std::map<test::LiveMap, std::string> references;
    auto reference = [&](const test::LiveMap& live) -> const std::string& {
      auto it = references.find(live);
      if (it == references.end()) {
        it = references
                 .emplace(live, test::ReferenceCanonical(
                                    generated.dataset, generated.rule, live,
                                    kTopK))
                 .first;
      }
      return it->second;
    };
    for (int shards : kShardCounts) {
      for (int threads : kThreadCounts) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
                     std::to_string(shards) + " threads " +
                     std::to_string(threads));
        TraceRecorder trace;
        ShardedEngine::Options options;
        options.engine = test::EngineOptions(threads, kTopK);
        options.engine.config.instrumentation.trace = &trace;
        options.shards = shards;
        ShardedEngine engine(generated.rule, options);
        size_t checks = 0;
        Drive(&engine, generated.dataset, history,
              [&](const test::LiveMap& live) {
                ++checks;
                EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
                          reference(live))
                    << "snapshot " << checks;
              });
        EXPECT_GT(checks, 0u);
        for (const auto& [key, value] : WalkOutcomes(trace)) {
          outcomes[key] += value;
        }
      }
    }
  }
  // The histories reach every outcome of the walk and of level 1.
  for (const char* outcome :
       {"children_kept", "children_grown", "new_nodes", "bridged",
        "pairwise", "flipped", "joined"}) {
    EXPECT_GT(outcomes[outcome], 0.0) << outcome;
  }
  EXPECT_EQ(outcomes["stopped"], 0.0);
}

/// The number of functions in the engine's sequence for `generated`.
int SequenceLength(const GeneratedDataset& generated) {
  const ResidentEngine::Options options = test::EngineOptions(1, kTopK);
  StatusOr<FunctionSequence> sequence = FunctionSequence::Build(
      generated.rule, generated.dataset.record(0), options.config.sequence);
  EXPECT_TRUE(sequence.ok());
  return static_cast<int>(sequence->size());
}

TEST(EngineWalkTest, ArrivalIntoCertifiedEntityRunsNoHashPass) {
  // A 14-record entity is hash-certified: every pass past level 1 returns
  // it whole. Its held-out 15th record walks that one path to the leaf and
  // joins the certified cluster without any hash pass or round.
  const GeneratedDataset generated =
      test::MakePlantedDataset({15, 5, 3}, /*seed=*/4);
  const int last_function = SequenceLength(generated) - 1;
  for (int threads : kThreadCounts) {
    MetricsRegistry registry;
    ResidentEngine::Options options = test::EngineOptions(threads, 3);
    options.config.instrumentation.metrics = &registry;
    ResidentEngine engine(generated.rule, options);
    std::vector<Record> first;
    test::LiveMap live;
    for (RecordId r = 1; r < generated.dataset.num_records(); ++r) {
      first.push_back(generated.dataset.record(r));
      live[r - 1] = r;
    }
    ASSERT_TRUE(engine.Ingest(std::move(first)).ok());
    std::shared_ptr<const EngineSnapshot> before = engine.Snapshot();
    ASSERT_EQ(before->clusters.front().size(), 14u);
    ASSERT_EQ(before->verification.front(), last_function);

    const uint64_t passes = registry.Snapshot().counters.at("hash_passes");
    const EngineCounters counters = engine.counters();
    auto walked = engine.Ingest({generated.dataset.record(0)});
    ASSERT_TRUE(walked.ok());
    live[walked.value().assigned_ids[0]] = 0;
    EXPECT_EQ(walked.value().refinement, TerminationReason::kCompleted);
    EXPECT_EQ(walked.value().stats.rounds, 0u) << "threads " << threads;
    EXPECT_EQ(registry.Snapshot().counters.at("hash_passes"), passes)
        << "threads " << threads;
    EXPECT_EQ(engine.counters().arrivals_walked, counters.arrivals_walked + 1);
    EXPECT_EQ(engine.counters().nodes_pended, counters.nodes_pended);
    std::shared_ptr<const EngineSnapshot> after = engine.Snapshot();
    EXPECT_EQ(after->clusters.front().size(), 15u);
    EXPECT_EQ(after->verification.front(), last_function);
    EXPECT_EQ(test::CanonicalSnapshot(*after),
              test::ReferenceCanonical(generated.dataset, generated.rule,
                                       live, 3));
  }
}

/// How a walk test stops its mutation: a hash budget of 1, a deadline the
/// walk's first level overruns, or a Cancel() fired at the walk's first
/// level.
enum class Stop { kHashBudget, kDeadline, kCancel };

TEST(EngineWalkTest, SloStopsTheWalkAndKeepsThePreviousGenerationServing) {
  const GeneratedDataset generated =
      test::MakePlantedDataset({12, 9, 7, 4, 2}, /*seed=*/6);
  const size_t split = generated.dataset.num_records() * 2 / 3;
  for (Stop stop : {Stop::kHashBudget, Stop::kDeadline, Stop::kCancel}) {
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("stop " + std::to_string(static_cast<int>(stop)) +
                   " threads " + std::to_string(threads));
      TraceRecorder trace;
      ResidentEngine::Options options = test::EngineOptions(threads, 3);
      options.config.instrumentation.trace = &trace;
      ResidentEngine engine(generated.rule, options);
      // Every entity arrives in both halves, interleaved, so the second
      // ingest's arrivals all join refined components and walk.
      std::vector<Record> first, second;
      std::vector<size_t> first_index, second_index;
      for (size_t r = 0; r < generated.dataset.num_records(); ++r) {
        const bool early = (r * 3) % generated.dataset.num_records() < split;
        (early ? first : second).push_back(generated.dataset.record(r));
        (early ? first_index : second_index).push_back(r);
      }
      test::LiveMap live;
      auto ingested = engine.Ingest(std::move(first));
      ASSERT_TRUE(ingested.ok());
      for (size_t i = 0; i < first_index.size(); ++i) {
        live[ingested.value().assigned_ids[i]] = first_index[i];
      }
      const uint64_t generation = engine.Snapshot()->generation;
      const auto top = engine.TopK(3);
      ASSERT_TRUE(top.ok());

      RunController controller;
      FaultInjector injector;
      EngineBatchOptions slo;
      TerminationReason expected = TerminationReason::kBudgetExhausted;
      switch (stop) {
        case Stop::kHashBudget:
          slo.budget.max_hashes = 1;
          break;
        case Stop::kDeadline:
          injector.InjectLatency(FaultSite::kHashApply, 20000);
          slo.budget.deadline_ms = 1;
          expected = TerminationReason::kDeadline;
          break;
        case Stop::kCancel:
          injector.CancelAt(FaultSite::kHashApply, 1, &controller);
          slo.controller = &controller;
          expected = TerminationReason::kCancelled;
          break;
      }
      {
        ScopedFaultInjector scoped(&injector);
        auto stopped = engine.Ingest(std::move(second), slo);
        ASSERT_TRUE(stopped.ok());
        EXPECT_EQ(stopped.value().refinement, expected);
        EXPECT_EQ(stopped.value().generation, generation);
        EXPECT_EQ(stopped.value().stats.rounds, 0u);
        for (size_t i = 0; i < second_index.size(); ++i) {
          live[stopped.value().assigned_ids[i]] = second_index[i];
        }
      }
      // The walk itself stopped: it pended the nodes it had not finished.
      EXPECT_GT(engine.counters().arrivals_walked, 0u);
      EXPECT_GT(WalkOutcomes(trace)["stopped"], 0.0);
      EXPECT_EQ(engine.Snapshot()->generation, generation);
      EXPECT_EQ(engine.TopK(3).value(), top.value());
      if (stop == Stop::kCancel) {
        // The cancellation is sticky for that controller.
        EXPECT_EQ(engine.Flush(slo).status().code(),
                  StatusCode::kFailedPrecondition);
      }

      auto flushed = engine.Flush();
      ASSERT_TRUE(flushed.ok());
      EXPECT_EQ(flushed.value().refinement, TerminationReason::kCompleted);
      EXPECT_GT(flushed.value().generation, generation);
      EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
                test::ReferenceCanonical(generated.dataset, generated.rule,
                                         live, 3));
    }
  }
}

}  // namespace
}  // namespace adalsh
