// Replica-shard fault tolerance (DESIGN.md section 12): the deterministic
// chaos harness, the device-to-device failover ladder, and the serve-path
// degraded mode. The locked invariants: chaos off is bit-identical to the
// pre-replica engine; chaos on keeps results exact (host-escalated or
// exact-after-refine in slack mode) for every replicas x scheduler_threads
// combination; and FailoverStats always balances
// (injected == recovered + shed).

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "kmeans/kmeans_common.h"
#include "pim/chaos.h"
#include "pim/fleet.h"
#include "serve/serve_options.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

ChaosEvent Death(uint32_t shard, uint32_t replica, uint64_t at_ns = 0) {
  ChaosEvent e;
  e.at_ns = at_ns;
  e.until_ns = ChaosSchedule::kNoRecovery;
  e.kind = ChaosEventKind::kDeviceDeath;
  e.shard = shard;
  e.replica = replica;
  return e;
}

ChaosEvent Stall(uint32_t shard, uint32_t replica, uint64_t at_ns,
                 uint64_t until_ns) {
  ChaosEvent e;
  e.at_ns = at_ns;
  e.until_ns = until_ns;
  e.kind = ChaosEventKind::kTransientStall;
  e.shard = shard;
  e.replica = replica;
  return e;
}

// --- Chaos harness ------------------------------------------------------

// The seeded generator is a pure function of (config, geometry): two draws
// are identical event for event, and every liveness query is a pure
// function of the queried instant.
TEST(ChaosScheduleTest, GenerateIsDeterministicAndPure) {
  ChaosConfig config;
  config.device_deaths = 3;
  config.stalls = 2;
  config.link_faults = 1;
  config.horizon_ns = 50'000;
  config.seed = 77;

  auto a = ChaosSchedule::Generate(config, 4, 2);
  auto b = ChaosSchedule::Generate(config, 4, 2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->events().size(), b->events().size());
  ASSERT_EQ(a->events().size(), 6u);
  for (size_t i = 0; i < a->events().size(); ++i) {
    EXPECT_EQ(a->events()[i].at_ns, b->events()[i].at_ns) << i;
    EXPECT_EQ(a->events()[i].until_ns, b->events()[i].until_ns) << i;
    EXPECT_EQ(a->events()[i].kind, b->events()[i].kind) << i;
    EXPECT_EQ(a->events()[i].shard, b->events()[i].shard) << i;
    EXPECT_EQ(a->events()[i].replica, b->events()[i].replica) << i;
    EXPECT_LT(a->events()[i].at_ns, config.horizon_ns) << i;
  }
  // Purity: asking twice, in any order, observes the same fleet.
  for (uint64_t t : {0ull, 10'000ull, 49'999ull, 100'000ull}) {
    for (uint32_t j = 0; j < 4; ++j) {
      EXPECT_EQ(a->LinkDown(j, t), b->LinkDown(j, t));
      EXPECT_EQ(a->HealthyReplicas(j, t), b->HealthyReplicas(j, t));
      for (uint32_t r = 0; r < 2; ++r) {
        EXPECT_EQ(a->ReplicaDown(j, r, t), a->ReplicaDown(j, r, t));
      }
    }
  }

  // A different seed draws a different schedule.
  ChaosConfig other = config;
  other.seed = 78;
  auto c = ChaosSchedule::Generate(other, 4, 2);
  ASSERT_TRUE(c.ok());
  bool any_diff = false;
  for (size_t i = 0; i < c->events().size(); ++i) {
    any_diff = any_diff || c->events()[i].at_ns != a->events()[i].at_ns ||
               c->events()[i].shard != a->events()[i].shard;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosScheduleTest, EventWindowSemantics) {
  const auto schedule = ChaosSchedule::FromEvents(
      {Death(0, 1, 100), Stall(1, 0, 200, 300),
       ChaosEvent{400, 500, ChaosEventKind::kLinkFault, 2, 0}},
      /*shards=*/3, /*replicas=*/2);
  ASSERT_TRUE(schedule.enabled());

  // A death never recovers.
  EXPECT_FALSE(schedule.ReplicaDown(0, 1, 99));
  EXPECT_TRUE(schedule.ReplicaDown(0, 1, 100));
  EXPECT_TRUE(schedule.ReplicaDown(0, 1, 1'000'000'000ull));
  EXPECT_EQ(schedule.HealthyReplicas(0, 99), 2u);
  EXPECT_EQ(schedule.HealthyReplicas(0, 100), 1u);

  // A stall is a half-open window.
  EXPECT_FALSE(schedule.ReplicaDown(1, 0, 199));
  EXPECT_TRUE(schedule.ReplicaDown(1, 0, 200));
  EXPECT_TRUE(schedule.ReplicaDown(1, 0, 299));
  EXPECT_FALSE(schedule.ReplicaDown(1, 0, 300));

  // A link fault drops every replica of the shard for its window.
  EXPECT_FALSE(schedule.LinkDown(2, 399));
  EXPECT_TRUE(schedule.LinkDown(2, 450));
  EXPECT_FALSE(schedule.LinkDown(2, 500));
  EXPECT_EQ(schedule.HealthyReplicas(2, 450), 0u);
  EXPECT_TRUE(schedule.ReplicaDown(2, 0, 450));
  EXPECT_TRUE(schedule.ReplicaDown(2, 1, 450));
}

TEST(ChaosScheduleTest, BackoffIsSeededExponentialWithBoundedJitter) {
  const uint64_t base = 2000, jitter = 1000, seed = 0xBAC0FFull;
  for (uint64_t token : {1ull, 42ull, 0xDEADBEEFull}) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const uint64_t w =
          FailoverBackoffNs(base, jitter, seed, token, attempt);
      EXPECT_EQ(w, FailoverBackoffNs(base, jitter, seed, token, attempt));
      const uint64_t floor = base << (attempt - 1);
      EXPECT_GE(w, floor) << "token=" << token << " attempt=" << attempt;
      EXPECT_LE(w, floor + jitter);
    }
  }
  // The jitter actually varies with the token (it is a hash, not a rng).
  EXPECT_NE(FailoverBackoffNs(base, jitter, seed, 1, 1),
            FailoverBackoffNs(base, jitter, seed, 2, 1));
}

// --- Engine failover ladder ---------------------------------------------

struct FailoverFixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::unique_ptr<ShardedPimEngine> clean;
  ShardedPimEngine::QueryHandleBatch reference;

  explicit FailoverFixture(int clean_replicas = 1)
      : data(RandomUnitMatrix(103, 24, 5)),
        queries(RandomUnitMatrix(4, 24, 6)) {
    EngineOptions options;
    options.shard.shards = 3;
    options.shard.replicas = clean_replicas;
    auto built = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    PIMINE_CHECK(built.ok()) << built.status().ToString();
    clean = std::move(built).value();
    ShardedPimEngine::QueryScratch scratch;
    PIMINE_CHECK_OK(
        clean->RunQueryBatch(Span(), queries.rows(), &scratch, &reference));
  }

  std::span<const float> Span() const {
    return std::span<const float>(queries.data(),
                                  queries.rows() * queries.cols());
  }

  Result<std::unique_ptr<ShardedPimEngine>> BuildFleet(
      int replicas, bool failover = true, int max_strikes = 3) const {
    EngineOptions options;
    options.shard.shards = 3;
    options.shard.replicas = replicas;
    options.shard.failover = failover;
    options.shard.max_strikes = max_strikes;
    return ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  }

  // Every bound of `run` on `fleet` must equal the clean single-replica
  // fleet's bit for bit.
  void ExpectBoundsIdentical(const ShardedPimEngine& fleet,
                             const ShardedPimEngine::QueryHandleBatch& run,
                             const std::string& label) const {
    for (size_t q = 0; q < queries.rows(); ++q) {
      for (size_t i = 0; i < data.rows(); ++i) {
        ASSERT_EQ(fleet.BoundFor(run, q, i),
                  clean->BoundFor(reference, q, i))
            << label << " q=" << q << " i=" << i;
      }
    }
  }
};

// A dead primary fails over to the next replica: results bit-identical,
// every transition counted, the shard reported degraded.
TEST(FailoverLadderTest, DeadPrimaryRecoversOnReplicaBitIdentical) {
  const FailoverFixture f;
  auto built = f.BuildFleet(/*replicas=*/2);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto fleet = std::move(built).value();

  const auto schedule =
      ChaosSchedule::FromEvents({Death(1, 0, 5)}, 3, 2);
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "dead primary");

  const FailoverStats fo = fleet->FleetStats().failover;
  EXPECT_EQ(fo.injected, 1u);
  EXPECT_EQ(fo.recovered, 1u);
  EXPECT_EQ(fo.shed, 0u);
  EXPECT_EQ(fo.chaos_denied, 1u);
  EXPECT_EQ(fo.strikes, 1u);
  EXPECT_GT(fo.retry_messages, 0u);
  EXPECT_GT(fo.backoff_ns, 0u);
  EXPECT_TRUE(fo.Balanced());
  EXPECT_EQ(fleet->serving_replica(1), 1);
  EXPECT_EQ(fleet->serving_replica(0), 0);
  EXPECT_TRUE(fleet->shard_degraded(1));
  EXPECT_FALSE(fleet->shard_degraded(0));
  EXPECT_EQ(fleet->DegradedShards(), 1);

  // Before any fault instant the same fleet serves from its primary and
  // records nothing — chaos evaluation is purely by dispatch instant.
  fleet->ResetOnlineStats();
  dispatch.now_ns = 3;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "pre-fault instant");
  EXPECT_FALSE(fleet->FleetStats().failover.Any());
  EXPECT_EQ(fleet->serving_replica(1), 0);
}

// Both replicas dead: with failover the op escalates to host-exact (still
// bit-identical); without it the DeviceFault carries shard, replica count
// and op-nonce provenance.
TEST(FailoverLadderTest, AllReplicasDeadEscalatesToHostExact) {
  const FailoverFixture f;
  const auto schedule =
      ChaosSchedule::FromEvents({Death(1, 0), Death(1, 1)}, 3, 2);

  auto built = f.BuildFleet(/*replicas=*/2);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "all replicas dead");
  const FleetRunStats stats = fleet->FleetStats();
  EXPECT_EQ(stats.failover.injected, 1u);
  EXPECT_EQ(stats.failover.recovered, 0u);
  EXPECT_EQ(stats.failover.shed, 1u);
  EXPECT_EQ(stats.failover.slack_fills, 0u);
  EXPECT_TRUE(stats.failover.Balanced());
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(fleet->serving_replica(1), fleet->replicas());

  auto strict_built = f.BuildFleet(/*replicas=*/2, /*failover=*/false);
  ASSERT_TRUE(strict_built.ok());
  const auto strict = std::move(strict_built).value();
  strict->set_chaos(&schedule);
  const Status s = strict->RunQueryBatch(f.Span(), f.queries.rows(),
                                         &scratch, &handle, dispatch);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeviceFault);
  EXPECT_NE(s.message().find("shard 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("(op "), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("2 replica(s) exhausted"), std::string::npos)
      << s.ToString();
}

// replicas == 1 under chaos is exactly the legacy escalation path: no
// strikes, no retries — a denied primary sheds straight to the host (or
// propagates a DeviceFault when failover is off).
TEST(FailoverLadderTest, SingleReplicaKeepsLegacyEscalation) {
  const FailoverFixture f;
  const auto schedule = ChaosSchedule::FromEvents({Death(1, 0)}, 3, 1);

  auto built = f.BuildFleet(/*replicas=*/1);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "single replica");
  const FailoverStats fo = fleet->FleetStats().failover;
  EXPECT_EQ(fo.injected, 1u);
  EXPECT_EQ(fo.shed, 1u);
  EXPECT_EQ(fo.recovered, 0u);
  EXPECT_EQ(fo.strikes, 0u);     // No ladder with nothing to fail over to.
  EXPECT_EQ(fo.backoff_ns, 0u);  // No retry transition either.
  EXPECT_TRUE(fo.Balanced());

  auto strict_built = f.BuildFleet(/*replicas=*/1, /*failover=*/false);
  ASSERT_TRUE(strict_built.ok());
  const auto strict = std::move(strict_built).value();
  strict->set_chaos(&schedule);
  const Status s = strict->RunQueryBatch(f.Span(), f.queries.rows(),
                                         &scratch, &handle, dispatch);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeviceFault);
}

// The ladder deadline prices out retries: an op that cannot afford the
// next backoff rung sheds immediately, and the strict-mode message says so.
TEST(FailoverLadderTest, LadderDeadlineShedsInsteadOfWaiting) {
  const FailoverFixture f;
  const auto schedule = ChaosSchedule::FromEvents({Death(1, 0)}, 3, 2);

  auto built = f.BuildFleet(/*replicas=*/2);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  dispatch.deadline_ns = 1;  // Below the smallest possible backoff.
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "deadline shed");
  const FailoverStats fo = fleet->FleetStats().failover;
  EXPECT_EQ(fo.shed, 1u);
  EXPECT_EQ(fo.recovered, 0u);
  EXPECT_EQ(fo.backoff_ns, 0u);  // The unaffordable wait is never charged.
  EXPECT_TRUE(fo.Balanced());

  auto strict_built = f.BuildFleet(/*replicas=*/2, /*failover=*/false);
  ASSERT_TRUE(strict_built.ok());
  const auto strict = std::move(strict_built).value();
  strict->set_chaos(&schedule);
  const Status s = strict->RunQueryBatch(f.Span(), f.queries.rows(),
                                         &scratch, &handle, dispatch);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ladder deadline exceeded"), std::string::npos)
      << s.ToString();
}

// Strike semantics: consecutive failures accumulate, a success resets the
// count, max_strikes strikes a replica out until ResetReplicaHealth
// readmits it.
TEST(FailoverLadderTest, StrikeCountResetAndReadmission) {
  const FailoverFixture f;
  // Replica 0 of shard 1 stalls during [0, 1000) and is healthy after.
  const auto schedule =
      ChaosSchedule::FromEvents({Stall(1, 0, 0, 1000)}, 3, 2);

  auto built = f.BuildFleet(/*replicas=*/2, /*failover=*/true,
                            /*max_strikes=*/3);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;

  const auto run_at = [&](uint64_t t) {
    dispatch.now_ns = t;
    ASSERT_TRUE(fleet
                    ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                    &handle, dispatch)
                    .ok());
    f.ExpectBoundsIdentical(*fleet, handle, "t=" + std::to_string(t));
  };

  // Two failures inside the stall window: two strikes, not yet out.
  run_at(10);
  run_at(20);
  EXPECT_EQ(fleet->replica_strikes(1, 0), 2);
  EXPECT_FALSE(fleet->replica_out(1, 0));

  // A success after the window resets the count (strikes are consecutive).
  run_at(2000);
  EXPECT_EQ(fleet->replica_strikes(1, 0), 0);
  EXPECT_EQ(fleet->serving_replica(1), 0);

  // Three consecutive failures strike the replica out...
  run_at(10);
  run_at(20);
  run_at(30);
  EXPECT_TRUE(fleet->replica_out(1, 0));
  EXPECT_EQ(fleet->FleetStats().failover.struck_out, 1u);
  EXPECT_TRUE(fleet->shard_degraded(1));

  // ...and it stays out even at instants where the schedule says healthy:
  // the ladder skips it (recovering on replica 1) until the operator
  // readmits it.
  fleet->ResetOnlineStats();
  run_at(2000);
  EXPECT_EQ(fleet->serving_replica(1), 1);
  const FailoverStats skipped = fleet->FleetStats().failover;
  EXPECT_EQ(skipped.injected, 1u);
  EXPECT_EQ(skipped.recovered, 1u);
  EXPECT_TRUE(skipped.Balanced());

  fleet->ResetReplicaHealth();
  EXPECT_FALSE(fleet->replica_out(1, 0));
  EXPECT_EQ(fleet->replica_strikes(1, 0), 0);
  run_at(2000);
  EXPECT_EQ(fleet->serving_replica(1), 0);
  EXPECT_FALSE(fleet->shard_degraded(1));
}

// Replication is transparent while no fault fires: replica 0 keeps the
// exact pre-replica build, so a replicas=3 fleet with no chaos installed
// is bit-identical to the replicas=1 fleet — and programming charges scale
// with the copy count.
TEST(FailoverLadderTest, ReplicasAreBitTransparentWithoutFaults) {
  const FailoverFixture f;
  auto built = f.BuildFleet(/*replicas=*/3);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch run;
  ASSERT_TRUE(
      fleet->RunQueryBatch(f.Span(), f.queries.rows(), &scratch, &run).ok());
  f.ExpectBoundsIdentical(*fleet, run, "replicas=3 no chaos");
  EXPECT_FALSE(fleet->FleetStats().failover.Any());
  EXPECT_EQ(fleet->PimComputeNs(), f.clean->PimComputeNs());
  // Offline: every copy is programmed (bytes sum over copies), the copies
  // program concurrently (time is the max, not the sum).
  EXPECT_EQ(fleet->OfflineBytesWritten(), 3 * f.clean->OfflineBytesWritten());
  EXPECT_EQ(fleet->OfflineNs(), f.clean->OfflineNs());
}

// The serve virtual clock walks each dispatch's ladders with PlanFailover
// and execution follows those plans. Over a dispatch sequence whose strike
// ledger carries from one dispatch to the next, a fleet handed the plans
// must execute exactly what they name — the serving replica, the failed
// attempts, the backoff, the strikes and the shed decision — and must end
// every dispatch in the same state as a twin fleet that walks inline, for
// recoveries, struck-out skips, full sheds, link outages and
// deadline-priced sheds alike.
TEST(FailoverLadderTest, PlanMatchesExecutedLadder) {
  const FailoverFixture f;
  const std::vector<ChaosEvent> events = {
      Death(0, 0, 100), Death(1, 0, 200), Death(1, 1, 300),
      Death(2, 1, 50),
      ChaosEvent{400, 600, ChaosEventKind::kLinkFault, 2, 0}};
  bool any_recovered = false;
  bool any_skipped = false;
  bool any_shed = false;
  bool any_deadline_shed = false;
  for (int replicas : {2, 3}) {
    auto built = f.BuildFleet(replicas);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const auto fleet = std::move(built).value();
    auto twin_built = f.BuildFleet(replicas);
    ASSERT_TRUE(twin_built.ok()) << twin_built.status().ToString();
    const auto twin = std::move(twin_built).value();
    const auto schedule = ChaosSchedule::FromEvents(
        events, 3, static_cast<uint32_t>(replicas));
    fleet->set_chaos(&schedule);
    twin->set_chaos(&schedule);

    ShardedPimEngine::QueryScratch scratch;
    ShardedPimEngine::QueryHandleBatch handle;
    for (uint64_t now : {10ull, 150ull, 250ull, 350ull, 500ull, 700ull}) {
      for (uint64_t deadline : {0ull, 4500ull}) {
        const std::string label = "replicas=" + std::to_string(replicas) +
                                  " now=" + std::to_string(now) +
                                  " deadline=" + std::to_string(deadline);
        ShardedPimEngine::DispatchOptions dispatch;
        dispatch.now_ns = now;
        dispatch.deadline_ns = deadline;
        fleet->ResetOnlineStats();
        twin->ResetOnlineStats();
        std::vector<ShardedPimEngine::FailoverPlan> plans;
        for (size_t j = 0; j < fleet->shards(); ++j) {
          plans.push_back(
              fleet->PlanFailover(j, f.queries.rows(), dispatch));
        }
        ASSERT_TRUE(twin->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                        &handle, dispatch)
                        .ok())
            << label;
        f.ExpectBoundsIdentical(*twin, handle, label + " inline");
        dispatch.plans = plans;
        ASSERT_TRUE(fleet
                        ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                        &handle, dispatch)
                        .ok())
            << label;
        f.ExpectBoundsIdentical(*fleet, handle, label);

        uint64_t attempts_failed = 0, backoff_ns = 0, shed = 0;
        for (size_t j = 0; j < fleet->shards(); ++j) {
          const ShardedPimEngine::FailoverPlan& plan = plans[j];
          const FailoverStats fo = fleet->ShardHealthSnapshot(j).failover;
          const std::string at = label + " shard=" + std::to_string(j);
          EXPECT_EQ(fleet->serving_replica(j),
                    plan.shed ? replicas : plan.serving_replica)
              << at;
          EXPECT_EQ(plan.serving_replica < 0, plan.shed) << at;
          EXPECT_EQ(fo.attempts_failed,
                    static_cast<uint64_t>(plan.failed_attempts))
              << at;
          EXPECT_EQ(fo.strikes, static_cast<uint64_t>(plan.strikes)) << at;
          EXPECT_EQ(fo.struck_out, static_cast<uint64_t>(plan.struck_out))
              << at;
          EXPECT_EQ(fo.injected, plan.Injected() ? 1u : 0u) << at;
          EXPECT_EQ(fo.backoff_ns, plan.backoff_ns) << at;
          EXPECT_EQ(fo.shed, plan.shed ? 1u : 0u) << at;
          EXPECT_NEAR(fo.failover_ns, plan.extra_ns,
                      1e-9 * (1.0 + plan.extra_ns))
              << at;
          // The inline walk took the same steps on the twin's ledger.
          EXPECT_EQ(twin->ShardHealthSnapshot(j).failover.ToString(),
                    fo.ToString())
              << at;
          EXPECT_EQ(twin->serving_replica(j), fleet->serving_replica(j))
              << at;
          for (int r = 0; r < replicas; ++r) {
            EXPECT_EQ(twin->replica_strikes(j, r),
                      fleet->replica_strikes(j, r))
                << at << " replica=" << r;
            EXPECT_EQ(twin->replica_out(j, r), fleet->replica_out(j, r))
                << at << " replica=" << r;
          }
          attempts_failed += static_cast<uint64_t>(plan.failed_attempts);
          backoff_ns += plan.backoff_ns;
          shed += plan.shed ? 1 : 0;
          any_recovered =
              any_recovered || (plan.failed_attempts > 0 && !plan.shed);
          any_skipped = any_skipped || plan.skipped > 0;
          any_shed = any_shed || plan.shed;
          any_deadline_shed = any_deadline_shed || plan.deadline_shed;
        }
        const FailoverStats total = fleet->FleetStats().failover;
        EXPECT_EQ(total.attempts_failed, attempts_failed) << label;
        EXPECT_EQ(total.backoff_ns, backoff_ns) << label;
        EXPECT_EQ(total.shed, shed) << label;
        EXPECT_TRUE(total.Balanced()) << label;
      }
    }
  }
  // The schedule exercises every rung: recovery on a later replica, a
  // replica struck out by earlier dispatches and skipped, a full shed,
  // and a shed priced out by the ladder deadline.
  EXPECT_TRUE(any_recovered);
  EXPECT_TRUE(any_skipped);
  EXPECT_TRUE(any_shed);
  EXPECT_TRUE(any_deadline_shed);
}

// --- k-means under chaos ------------------------------------------------

// A primary death during the assign/update iteration: the PIM lower bounds
// and the tree-reduced UpdateCenters sums stay bit-identical to the
// fault-free fleet (the exactness invariant survives failover).
TEST(FailoverKmeansTest, UpdateCentersTreeReduceSurvivesPrimaryDeath) {
  const FloatMatrix data = RandomUnitMatrix(120, 16, 21);
  const int k = 8;
  const FloatMatrix centers = InitCenters(data, k, 33);
  std::vector<int32_t> assignments(data.rows());
  for (size_t i = 0; i < assignments.size(); ++i) {
    assignments[i] = static_cast<int32_t>(i % k);
  }

  EngineOptions options;
  options.shard.shards = 4;
  options.shard.replicas = 2;

  auto clean_built = PimAssignFilter::Build(data, options);
  ASSERT_TRUE(clean_built.ok()) << clean_built.status().ToString();
  const auto clean = std::move(clean_built).value();
  ASSERT_TRUE(clean->BeginIteration(centers).ok());
  std::vector<double> clean_moved;
  const FloatMatrix clean_next =
      UpdateCenters(data, assignments, centers, &clean_moved, clean.get());

  auto chaotic_built = PimAssignFilter::Build(data, options);
  ASSERT_TRUE(chaotic_built.ok());
  const auto chaotic = std::move(chaotic_built).value();
  const auto schedule = ChaosSchedule::FromEvents({Death(2, 0, 5)}, 4, 2);
  chaotic->InstallChaos(&schedule);
  chaotic->SetChaosNowNs(10);
  ASSERT_TRUE(chaotic->BeginIteration(centers).ok());

  for (size_t i = 0; i < data.rows(); ++i) {
    for (int c = 0; c < k; ++c) {
      ASSERT_EQ(chaotic->LowerBound(i, c), clean->LowerBound(i, c))
          << "i=" << i << " c=" << c;
    }
  }
  std::vector<double> moved;
  const FloatMatrix next =
      UpdateCenters(data, assignments, centers, &moved, chaotic.get());
  ASSERT_EQ(next.rows(), clean_next.rows());
  ASSERT_EQ(next.cols(), clean_next.cols());
  for (size_t i = 0; i < next.rows() * next.cols(); ++i) {
    ASSERT_EQ(next.data()[i], clean_next.data()[i]) << "flat index " << i;
  }
  ASSERT_EQ(moved, clean_moved);

  const FailoverStats fo = chaotic->FleetStats().failover;
  EXPECT_GT(fo.injected, 0u);
  EXPECT_EQ(fo.injected, fo.recovered);
  EXPECT_TRUE(fo.Balanced());
}

// --- Serve path ---------------------------------------------------------

constexpr size_t kObjects = 220;
constexpr size_t kDims = 24;
constexpr size_t kQueryRows = 40;

const FloatMatrix& ServeData() {
  static const FloatMatrix* data =
      new FloatMatrix(RandomUnitMatrix(kObjects, kDims, 7));
  return *data;
}

const FloatMatrix& ServeQueries() {
  static const FloatMatrix* queries =
      new FloatMatrix(RandomUnitMatrix(kQueryRows, kDims, 11));
  return *queries;
}

serve::ArrivalTrace ServeTrace() {
  serve::WorkloadSpec spec;
  spec.num_requests = 120;
  spec.offered_qps = 2e6;
  spec.tenant_share = {0.5, 0.5};
  spec.num_query_rows = kQueryRows;
  spec.seed = 99;
  auto trace = serve::GeneratePoissonTrace(spec);
  PIMINE_CHECK(trace.ok()) << trace.status().ToString();
  return *trace;
}

serve::ServeOptions ServeBase(int scheduler_threads) {
  serve::ServeOptions options;
  options.max_batch = 8;
  options.max_wait_ns = 2000;
  options.queue_capacity = 4096;
  options.scheduler_threads = scheduler_threads;
  options.k = 5;
  options.exec.device_batch = 4;
  options.tenants = {{"gold", 4}, {"free", 1}};
  return options;
}

EngineOptions ServeEngine(int replicas) {
  EngineOptions options;
  options.pim_config.num_crossbars = 4096;
  options.shard.shards = 2;
  options.shard.replicas = replicas;
  return options;
}

serve::ReplayOutput MustReplay(serve::PimServer& server,
                               const serve::ArrivalTrace& trace) {
  auto output = server.Replay(trace, ServeQueries());
  PIMINE_CHECK(output.ok()) << output.status().ToString();
  return *std::move(output);
}

// Sum of field `field` over every point of series `name` in a
// pimine.obs.timeseries.v1 document (counter points are [w, count, rate],
// histogram points [w, count, sum, max, p50, p99]); 0 when absent.
uint64_t SeriesTotal(const std::string& json, const std::string& name,
                     size_t field) {
  size_t pos = json.find("\"" + name + "\": {");
  if (pos == std::string::npos) return 0;
  pos = json.find("\"points\": [", pos) + 11;
  const size_t end = json.find("]}", pos);
  uint64_t total = 0;
  while ((pos = json.find('[', pos)) < end) {
    ++pos;
    for (size_t i = 0; i < field; ++i) pos = json.find(", ", pos) + 2;
    total += std::strtoull(json.c_str() + pos, nullptr, 10);
  }
  return total;
}

// Everything a replay exports about failover, as text: FleetStats, each
// shard's health snapshot, the timeseries and the event log.
std::vector<std::string> FailoverExports(const serve::PimServer& server,
                                         const serve::ReplayOutput& output) {
  const ShardedPimEngine& engine = server.engine();
  std::vector<std::string> exported = {
      engine.FleetStats().failover.ToString()};
  for (size_t j = 0; j < engine.shards(); ++j) {
    exported.push_back(engine.ShardHealthSnapshot(j).failover.ToString());
  }
  exported.push_back(output.timeseries_json);
  exported.push_back(output.events_jsonl);
  return exported;
}

// The acceptance matrix: under a seeded device-death schedule, served
// results are bit-identical to the fault-free run for every
// replicas x scheduler_threads combination (exact modes: no degraded
// watermark, so exhaustion escalates host-exact). The ladders are walked
// once per dispatch in dispatch order, so the failover accounting, the
// per-shard health and the replay telemetry are byte-identical across
// thread counts too, and the telemetry totals equal the counters.
TEST(FailoverServeTest, ChaosReplayMatrixBitIdenticalToFaultFree) {
  const serve::ArrivalTrace trace = ServeTrace();

  auto clean_server = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(1), ServeBase(1));
  ASSERT_TRUE(clean_server.ok()) << clean_server.status().ToString();
  const serve::ReplayOutput clean = MustReplay(**clean_server, trace);
  ASSERT_GT(clean.stats.served, 0u);

  bool any_injected = false;
  for (int replicas : {1, 2, 3}) {
    std::vector<std::string> first;
    for (int threads : {1, 2, 4}) {
      const std::string label = "replicas=" + std::to_string(replicas) +
                                " threads=" + std::to_string(threads);
      serve::ServeOptions options = ServeBase(threads);
      options.chaos.device_deaths = 3;
      options.chaos.horizon_ns = 50'000;
      options.chaos.seed = 4242;
      options.event_sample_rate = 1.0;
      auto server = serve::PimServer::Build(
          ServeData(), Distance::kEuclidean, ServeEngine(replicas), options);
      ASSERT_TRUE(server.ok()) << label << ": " << server.status().ToString();
      const serve::ReplayOutput output = MustReplay(**server, trace);

      ASSERT_EQ(output.results.size(), clean.results.size()) << label;
      for (size_t i = 0; i < output.results.size(); ++i) {
        ASSERT_TRUE(output.results[i].status.ok()) << label << " query " << i;
        // Failover backoff shifts dispatch instants, so batch COMPOSITION
        // may legally differ from the fault-free run — neighbours cannot
        // (composition invariance is the engine's core contract).
        ASSERT_EQ(output.results[i].neighbors, clean.results[i].neighbors)
            << label << " query " << i;
      }
      const ShardedPimEngine& engine = (*server)->engine();
      const FailoverStats fo = engine.FleetStats().failover;
      EXPECT_TRUE(fo.Balanced()) << label << ": " << fo.ToString();
      any_injected = any_injected || fo.injected > 0;

      // The telemetry is written from the plans execution follows.
      const std::string& ts = output.timeseries_json;
      ASSERT_NE(ts.find("\"oldest_window\": 0,"), std::string::npos) << ts;
      EXPECT_EQ(SeriesTotal(ts, "failover_recovered", 1), fo.recovered)
          << label;
      EXPECT_EQ(SeriesTotal(ts, "failover_shed", 1), fo.shed) << label;
      EXPECT_EQ(SeriesTotal(ts, "failover_backoff_ns", 2), fo.backoff_ns)
          << label;

      const std::vector<std::string> exported =
          FailoverExports(**server, output);
      // A second replay on the same server starts from a healthy ledger.
      EXPECT_EQ(FailoverExports(**server, MustReplay(**server, trace)),
                exported)
          << label;
      if (first.empty()) {
        first = exported;
        continue;
      }
      ASSERT_EQ(exported.size(), first.size()) << label;
      for (size_t e = 0; e < exported.size(); ++e) {
        EXPECT_EQ(exported[e], first[e]) << label << " export " << e;
      }
    }
  }
  // The schedule actually disturbed at least one configuration — the
  // matrix is not vacuous.
  EXPECT_TRUE(any_injected);
}

// Chaos off (the default options) leaves the serve path byte-identical:
// same results, healthy healthz, no failover families with nonzero values.
TEST(FailoverServeTest, ChaosOffIsTransparent) {
  const serve::ArrivalTrace trace = ServeTrace();
  auto baseline = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(1), ServeBase(1));
  ASSERT_TRUE(baseline.ok());
  const serve::ReplayOutput a = MustReplay(**baseline, trace);

  auto replicated = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(3), ServeBase(4));
  ASSERT_TRUE(replicated.ok());
  const serve::ReplayOutput b = MustReplay(**replicated, trace);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].neighbors, b.results[i].neighbors) << i;
  }
  EXPECT_EQ(a.stats.shed_queries, 0u);
  EXPECT_EQ(b.stats.shed_queries, 0u);
  EXPECT_EQ(b.stats.degraded_batches, 0u);
  EXPECT_FALSE((*replicated)->engine().FleetStats().failover.Any());
  EXPECT_EQ((*replicated)->HealthzBody(), "ok\n");
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
}

// Degraded mode: when a shard sinks below the healthy-replica watermark,
// the scheduler sheds lowest-weight-tenant load with a CapacityExceeded
// naming the degraded shard, serves the rest exactly (bound-slack fills
// refine to exact results), and reports degraded through /healthz and the
// failover metric families.
TEST(FailoverServeTest, DegradedModeShedsLowestWeightTenant) {
  const serve::ArrivalTrace trace = ServeTrace();

  auto clean_server = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(2), ServeBase(1));
  ASSERT_TRUE(clean_server.ok());
  const serve::ReplayOutput clean = MustReplay(**clean_server, trace);

  serve::ServeOptions options = ServeBase(1);
  options.chaos.device_deaths = 4;
  options.chaos.horizon_ns = 20'000;  // Early deaths: most of the trace
                                      // runs against the degraded fleet.
  options.chaos.seed = 4242;
  options.degrade_watermark = 0.75;   // One dead replica of two trips it.
  options.event_sample_rate = 1.0;
  auto server = serve::PimServer::Build(ServeData(), Distance::kEuclidean,
                                        ServeEngine(2), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const serve::ReplayOutput output = MustReplay(**server, trace);

  ASSERT_GT(output.stats.shed_queries, 0u);
  EXPECT_GT(output.stats.degraded_batches, 0u);
  ASSERT_EQ(output.results.size(), clean.results.size());
  for (size_t i = 0; i < output.results.size(); ++i) {
    const serve::ServedResult& r = output.results[i];
    if (!r.status.ok()) {
      // Only the lowest-weight tenant is ever shed, with a 503-style
      // message naming the degraded shard.
      EXPECT_EQ(r.status.code(), StatusCode::kCapacityExceeded) << i;
      EXPECT_EQ(r.tenant, 1u) << i;  // "free", weight 1.
      EXPECT_NE(r.status.message().find("degraded: shard"),
                std::string::npos)
          << r.status.ToString();
      EXPECT_NE(r.status.message().find("shedding tenant 'free'"),
                std::string::npos)
          << r.status.ToString();
      continue;
    }
    // Served queries stay exact: batch composition and slack fills cannot
    // change any query's neighbours.
    ASSERT_EQ(r.neighbors, clean.results[i].neighbors) << "query " << i;
  }
  const FailoverStats fo = (*server)->engine().FleetStats().failover;
  EXPECT_TRUE(fo.Balanced()) << fo.ToString();

  // Degradation is reported, not fatal: /healthz stays an "ok" body with
  // the degraded detail, and the metric families carry the counters.
  const std::string healthz = (*server)->HealthzBody();
  EXPECT_NE(healthz.find("ok degraded"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("shard"), std::string::npos) << healthz;
  const std::string metrics = (*server)->MetricsText();
  EXPECT_NE(metrics.find("pimine_fleet_degraded_shards"), std::string::npos);
  EXPECT_NE(metrics.find("pimine_serve_shed_queries_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("pimine_failover_injected_total"),
            std::string::npos);
  // The sampled event log carries the failover records.
  EXPECT_NE(output.events_jsonl.find("\"kind\": \"failover\""),
            std::string::npos);

  // The degraded replay is itself thread-count invariant (results, shed
  // set and telemetry alike).
  serve::ServeOptions threaded_options = options;
  threaded_options.scheduler_threads = 4;
  auto threaded = serve::PimServer::Build(ServeData(), Distance::kEuclidean,
                                          ServeEngine(2), threaded_options);
  ASSERT_TRUE(threaded.ok());
  const serve::ReplayOutput output4 = MustReplay(**threaded, trace);
  ASSERT_EQ(output4.results.size(), output.results.size());
  for (size_t i = 0; i < output.results.size(); ++i) {
    ASSERT_EQ(output4.results[i].status.ok(), output.results[i].status.ok())
        << i;
    ASSERT_EQ(output4.results[i].neighbors, output.results[i].neighbors)
        << i;
  }
  EXPECT_EQ(output4.stats.shed_queries, output.stats.shed_queries);
  EXPECT_EQ(output4.events_jsonl, output.events_jsonl);
  EXPECT_EQ(output4.timeseries_json, output.timeseries_json);
}

}  // namespace
}  // namespace pimine
