// Fleet coordination correctness: the deterministic partition of the
// injection space, the work-unit identity carried in checkpoint-journal
// headers, and the headline guarantee — a multi-process fleet campaign
// (including one whose worker is killed mid-flight and restarted from
// its own checkpoint) produces the bit-identical record stream, records
// digest, and timing-stripped merged metrics of the single-process run
// with shards = units.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fleet.hpp"
#include "fault/record_io.hpp"
#include "hv/microvisor.hpp"
#include "obs/record_sink.hpp"
#include "obs/snapshot.hpp"

namespace xentry::fault {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string stripped_metrics_json(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  obs::strip_timing_metrics(reg).write_json(os);
  return os.str();
}

std::shared_ptr<const analysis::AnalysisArtifacts> analyze_machine(
    const hv::MicrovisorOptions& opt) {
  const hv::Microvisor mv = hv::build_microvisor(opt);
  return std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(mv.program, hv::analyze_options(mv)));
}

TEST(FleetPartition, CoversEveryUnitExactlyOnce) {
  for (const int units : {1, 2, 4, 6, 13}) {
    for (const int workers : {1, 2, 3, 4, 7}) {
      if (workers > units) continue;  // run_fleet rejects idle workers
      std::set<int> seen;
      for (int w = 0; w < workers; ++w) {
        const std::vector<int> mine = fleet_units_for_worker(units, workers, w);
        EXPECT_FALSE(mine.empty()) << units << "/" << workers << "/" << w;
        for (std::size_t i = 1; i < mine.size(); ++i) {
          EXPECT_LT(mine[i - 1], mine[i]) << "assignment must be ascending";
        }
        for (const int u : mine) {
          EXPECT_TRUE(seen.insert(u).second)
              << "unit " << u << " assigned twice (units=" << units
              << " workers=" << workers << ")";
        }
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(units));
      EXPECT_EQ(*seen.begin(), 0);
      EXPECT_EQ(*seen.rbegin(), units - 1);
    }
  }
}

TEST(FleetPartition, AssignmentIsRoundRobin) {
  // Unit u belongs to worker u % workers: the partition depends only on
  // (unit_count, workers), never on timing or process identity.
  EXPECT_EQ(fleet_units_for_worker(6, 3, 0), (std::vector<int>{0, 3}));
  EXPECT_EQ(fleet_units_for_worker(6, 3, 1), (std::vector<int>{1, 4}));
  EXPECT_EQ(fleet_units_for_worker(6, 3, 2), (std::vector<int>{2, 5}));
  EXPECT_EQ(fleet_units_for_worker(5, 2, 0), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(fleet_units_for_worker(5, 2, 1), (std::vector<int>{1, 3}));
}

TEST(FleetPaths, LayoutUnderCampaignDir) {
  EXPECT_EQ(fleet_records_path("/d"), "/d/records");
  EXPECT_EQ(fleet_checkpoint_path("/d", 2), "/d/ckpt.worker2");
  EXPECT_EQ(fleet_heartbeat_path("/d", 0), "/d/hb.worker0.json");
  EXPECT_EQ(fleet_status_path("/d"), "/d/status.json");
}

/// Fresh scratch directory per test; removed on teardown.
class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fleet_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CampaignConfig base_cfg(bool importance) {
    CampaignConfig cfg;
    cfg.injections = 240;
    cfg.seed = 31;
    cfg.xentry.transition_detection = false;  // no model installed
    cfg.obs.metrics = true;
    cfg.streaming.checkpoint_every = 16;
    if (importance) {
      cfg.analysis = analyze_machine(cfg.machine);
      cfg.sampling.importance = true;
    }
    return cfg;
  }

  /// The single-process reference: same campaign, shards = units.
  CampaignResult run_reference(int units, bool importance) {
    CampaignConfig cfg = base_cfg(importance);
    cfg.shards = units;
    cfg.streaming.records_path = dir_ + "/ref";
    cfg.streaming.checkpoint_path = dir_ + "/ref.ckpt";
    return run_campaign(cfg);
  }

  FleetOptions fleet_opts(int workers, int units, bool importance,
                          int sim_kill) {
    FleetOptions fo;
    fo.base = base_cfg(importance);
    fo.units = units;
    fo.workers = workers;
    fo.dir = dir_ + "/fleet";
    std::filesystem::create_directories(fo.dir);
    fo.status_interval_sec = 0.05;
    fo.worker_heartbeat_sec = 0.05;
    fo.stall_timeout_sec = 60;  // no spurious stall kills under CI load
    fo.max_restarts = 2;
    fo.simulate_kill_worker0_after = sim_kill;
    return fo;
  }

  std::string dir_;
};

void expect_fleet_matches_reference(FleetTest* t, int workers, int units,
                                    bool importance, int sim_kill,
                                    FleetOptions opts,
                                    const CampaignResult& ref,
                                    const std::string& dir,
                                    std::optional<std::uint64_t> pin = {}) {
  const FleetResult res = run_fleet(opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.digest_cross_checked);
  ASSERT_EQ(res.records.size(), ref.records.size());
  EXPECT_EQ(res.digest, records_digest(ref.records))
      << "fleet digest must match the single-process run bit for bit "
      << "(workers=" << workers << " units=" << units
      << " importance=" << importance << " sim_kill=" << sim_kill << ")";
  if (pin.has_value()) {
    EXPECT_EQ(res.digest, *pin);
  }
  if (sim_kill > 0) {
    EXPECT_GE(res.restarts, 1) << "the simulated kill must force a restart";
    EXPECT_GE(res.worker_restarts[0], 1);
  } else {
    EXPECT_EQ(res.restarts, 0);
  }

  // Stronger than digest equality: every unit's persisted stream is
  // byte-identical to the reference's shard stream.
  for (int u = 0; u < units; ++u) {
    const auto up = static_cast<std::size_t>(u);
    EXPECT_EQ(slurp(obs::ShardedFileSink::shard_path(
                  fleet_records_path(opts.dir), obs::RecordFormat::kJsonl, up)),
              slurp(obs::ShardedFileSink::shard_path(
                  dir + "/ref", obs::RecordFormat::kJsonl, up)))
        << "unit " << u;
  }

  // Merged sidecar metrics (timing stripped) match the reference's
  // registry — the observability plane reconstructs the same campaign.
  EXPECT_EQ(stripped_metrics_json(res.metrics),
            stripped_metrics_json(ref.metrics));

  // Weighted rates survive the merge.
  EXPECT_DOUBLE_EQ(res.rates.effective_injections,
                   weighted_rates(ref.records).effective_injections);
  (void)t;
}

#define FLEET_MATCHES_REFERENCE(workers, units, importance, sim_kill)        \
  do {                                                                       \
    const CampaignResult ref = run_reference(units, importance);             \
    expect_fleet_matches_reference(                                          \
        this, workers, units, importance, sim_kill,                          \
        fleet_opts(workers, units, importance, sim_kill), ref, dir_);        \
  } while (0)

TEST_F(FleetTest, OneWorkerUniformKillRestartMatchesReference) {
  // Also pins the merged digest absolutely: the relative checks alone
  // would pass if the fleet and the single-process run drifted together.
  // Changing this value needs a CHANGES.md line naming the cause.
  const CampaignResult ref = run_reference(2, false);
  expect_fleet_matches_reference(this, 1, 2, false, 21,
                                 fleet_opts(1, 2, false, 21), ref, dir_,
                                 0x6bfa92967b42966cull);
}

TEST_F(FleetTest, TwoWorkersUniformKillRestartMatchesReference) {
  FLEET_MATCHES_REFERENCE(2, 4, false, 21);
}

TEST_F(FleetTest, FourWorkersUniformKillRestartMatchesReference) {
  FLEET_MATCHES_REFERENCE(4, 8, false, 17);
}

TEST_F(FleetTest, OneWorkerImportanceKillRestartMatchesReference) {
  FLEET_MATCHES_REFERENCE(1, 2, true, 21);
}

TEST_F(FleetTest, TwoWorkersImportanceKillRestartMatchesReference) {
  FLEET_MATCHES_REFERENCE(2, 4, true, 21);
}

TEST_F(FleetTest, FourWorkersImportanceKillRestartMatchesReference) {
  FLEET_MATCHES_REFERENCE(4, 8, true, 17);
}

TEST_F(FleetTest, CleanRunWithoutChaosMatchesReference) {
  FLEET_MATCHES_REFERENCE(3, 6, false, 0);
}

TEST_F(FleetTest, StatusFileIsPublished) {
  const FleetOptions opts = fleet_opts(2, 4, false, 0);
  const FleetResult res = run_fleet(opts);
  ASSERT_TRUE(res.ok) << res.error;
  const std::string status = slurp(fleet_status_path(opts.dir));
  EXPECT_NE(status.find("\"schema\":\"xentry.fleet.status.v1\""),
            std::string::npos);
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos);
}

TEST_F(FleetTest, HeaderUnitsRoundTripAndGuardResumeIdentity) {
  // A fleet worker's journal header records its unit assignment.
  CampaignConfig cfg = base_cfg(false);
  cfg.fleet.unit_count = 4;
  cfg.fleet.units = {0, 2};
  cfg.streaming.records_path = dir_ + "/w";
  cfg.streaming.checkpoint_path = dir_ + "/w.ckpt";
  cfg.streaming.abort_after = 20;  // leave a resumable journal behind
  run_campaign(cfg);

  const JournalContents j = read_journal(cfg.streaming.checkpoint_path);
  ASSERT_TRUE(j.valid);
  EXPECT_EQ(j.header.shards, 4);  // the unit space, not the active subset
  EXPECT_EQ(j.header.units, (std::vector<int>{0, 2}));

  // Resuming under a different unit assignment would splice streams from
  // two different partitions — rejected like any identity mismatch.
  CampaignConfig other = cfg;
  other.streaming.abort_after = 0;
  other.fleet.units = {0, 3};
  EXPECT_THROW(run_campaign(other), std::invalid_argument);

  // The correct assignment resumes fine.
  cfg.streaming.abort_after = 0;
  const CampaignResult res = run_campaign(cfg);
  EXPECT_TRUE(res.resumed);
}

TEST_F(FleetTest, SingleProcessJournalHeaderHasNoUnits) {
  // The "units" key is emitted only for fleet workers: single-process
  // journals stay byte-identical to pre-fleet ones.
  CampaignConfig cfg = base_cfg(false);
  cfg.shards = 2;
  cfg.streaming.records_path = dir_ + "/solo";
  cfg.streaming.checkpoint_path = dir_ + "/solo.ckpt";
  run_campaign(cfg);
  const JournalContents j = read_journal(cfg.streaming.checkpoint_path);
  ASSERT_TRUE(j.valid);
  EXPECT_TRUE(j.header.units.empty());
  EXPECT_EQ(slurp(cfg.streaming.checkpoint_path)
                .find("\"units\""),
            std::string::npos);
}

TEST_F(FleetTest, FleetConfigValidation) {
  const auto valid = [this] {
    CampaignConfig cfg = base_cfg(false);
    cfg.fleet.unit_count = 4;
    cfg.fleet.units = {1, 3};
    cfg.streaming.records_path = dir_ + "/v";
    return cfg;
  };
  EXPECT_NO_THROW(validate_campaign_config(valid()));

  auto c = valid();
  c.streaming.records_path.clear();  // fleet merge needs durable streams
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.unit_count = 500;  // > injections: single-process run would
  EXPECT_THROW(validate_campaign_config(c),  // clamp, breaking bit-identity
               std::invalid_argument);

  c = valid();
  c.fleet.units.clear();
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.units = {1, 4};  // out of range
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.units = {1, 1};  // duplicate
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.unit_count = 0;  // units without a unit space
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.heartbeat.straggler_fraction = 1.0;  // must be in [0, 1)
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
}

TEST_F(FleetTest, RunFleetRejectsBadOptions) {
  FleetOptions fo = fleet_opts(2, 4, false, 0);
  fo.workers = 0;
  EXPECT_FALSE(run_fleet(fo).ok);

  fo = fleet_opts(2, 4, false, 0);
  fo.dir.clear();
  EXPECT_FALSE(run_fleet(fo).ok);

  fo = fleet_opts(4, 2, false, 0);  // more workers than units
  EXPECT_FALSE(run_fleet(fo).ok);
}

}  // namespace
}  // namespace xentry::fault
