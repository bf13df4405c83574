// The cross-process observability plane, exercised with synthetic files
// and injected clocks: atomic file publication, tailing
// concurrently-growing and torn-tail snapshot sidecars into one merged
// registry, stall detection by signal staleness, straggler flagging
// against the fleet median, and the status.json schema (checked by
// parsing the document with the tests' JSON reader, test_json.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/atomic_file.hpp"
#include "obs/fleet_view.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "test_json.hpp"

namespace xentry::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void append_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << text;
}

class FleetViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fleet_view_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Heartbeat JSON in the coordinator's wire format.
  static std::string hb_json(int worker, std::uint64_t completed,
                             std::uint64_t total, double rate,
                             std::uint64_t lag = 0, std::uint64_t dropped = 0,
                             std::uint64_t checkpointed = 0,
                             std::uint64_t stragglers = 0,
                             double elapsed = 1.0) {
    std::ostringstream os;
    os << "{\"worker\":" << worker << ",\"completed\":" << completed
       << ",\"total\":" << total << ",\"recent_per_sec\":" << rate
       << ",\"sink_lag_bytes\":" << lag << ",\"sink_dropped\":" << dropped
       << ",\"checkpointed\":" << checkpointed
       << ",\"stragglers\":" << stragglers << ",\"elapsed_sec\":" << elapsed
       << "}\n";
    return os.str();
  }

  /// A two-worker view: worker 0 owns units {0, 2}, worker 1 owns {1, 3}.
  FleetView make_view(double stall_timeout = 30.0,
                      double straggler_fraction = 0.5) {
    FleetView::Options o;
    o.total_injections = 400;
    o.seed = 31;
    o.unit_count = 4;
    o.workers = 2;
    o.worker_units = {{0, 2}, {1, 3}};
    o.heartbeat_paths = {path("hb0.json"), path("hb1.json")};
    o.sidecar_paths = {{path("s0.jsonl"), path("s2.jsonl")},
                       {path("s1.jsonl"), path("s3.jsonl")}};
    o.stall_timeout_sec = stall_timeout;
    o.straggler_fraction = straggler_fraction;
    return FleetView(o);
  }

  std::string dir_;
};

TEST_F(FleetViewTest, WriteFileAtomicPublishesAndOverwrites) {
  const std::string p = path("status.json");
  ASSERT_TRUE(write_file_atomic(p, "first\n"));
  EXPECT_EQ(slurp(p), "first\n");
  ASSERT_TRUE(write_file_atomic(p, "second\n"));
  EXPECT_EQ(slurp(p), "second\n");
  // The temp file never survives a successful publication.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  // Unwritable destination: failure is reported, nothing is left behind.
  EXPECT_FALSE(write_file_atomic(dir_ + "/missing/status.json", "x"));
}

TEST(FleetMedian, MedianOfSortedAndUnsorted) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({5.0}), 5.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(FleetStragglers, FlagsBelowFractionOfMedian) {
  const auto flags = flag_stragglers({10.0, 9.0, 2.0, 11.0}, 0.5);
  EXPECT_EQ(flags, (std::vector<bool>{false, false, true, false}));
}

TEST(FleetStragglers, EdgeCasesFlagNothing) {
  // Disabled threshold, a lone worker, and an all-stuck fleet (median 0)
  // produce no straggler flags.
  EXPECT_EQ(flag_stragglers({1.0, 100.0}, 0.0),
            (std::vector<bool>{false, false}));
  EXPECT_EQ(flag_stragglers({1.0}, 0.5), (std::vector<bool>{false}));
  EXPECT_EQ(flag_stragglers({0.0, 0.0, 0.0}, 0.5),
            (std::vector<bool>{false, false, false}));
}

TEST_F(FleetViewTest, MergesGrowingAndTornSidecars) {
  FleetView view = make_view();
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 100, 0);
  view.set_lifecycle(1, WorkerLifecycle::kRunning, 101, 0);

  // Unit 0's sidecar: one full snapshot.
  MetricsRegistry r0;
  r0.counter("fault.injected").inc(10);
  {
    std::ostringstream os;
    SnapshotWriter w(os);
    w.write(r0);
    write_file_atomic(path("s0.jsonl"), os.str());
  }
  view.poll(1.0);
  ASSERT_NE(view.merged_metrics().find_counter("fault.injected"), nullptr);
  EXPECT_EQ(view.merged_metrics().find_counter("fault.injected")->value(),
            10u);

  // Unit 1's sidecar appears later (concurrent growth) with a torn final
  // line — the intact prefix still merges.
  MetricsRegistry r1;
  r1.counter("fault.injected").inc(7);
  {
    std::ostringstream os;
    SnapshotWriter w(os);
    w.write(r1);
    write_file_atomic(path("s1.jsonl"), os.str());
  }
  append_file(path("s1.jsonl"), "{\"seq\":1,\"full\":false,\"coun");
  view.poll(2.0);
  EXPECT_EQ(view.merged_metrics().find_counter("fault.injected")->value(),
            17u);

  // Unit 0's sidecar grows a delta; the merged view follows.
  {
    std::ostringstream os;
    SnapshotWriter w(os);
    w.write(r0);  // re-prime: full snapshot at 10...
    r0.counter("fault.injected").inc(5);
    w.write(r0);  // ...then a delta of +5
    write_file_atomic(path("s0.jsonl"), os.str());
  }
  view.poll(3.0);
  EXPECT_EQ(view.merged_metrics().find_counter("fault.injected")->value(),
            22u);
}

TEST_F(FleetViewTest, AggregatesHeartbeatsIntoFleetTotals) {
  FleetView view = make_view();
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 100, 0);
  view.set_lifecycle(1, WorkerLifecycle::kRunning, 101, 1);
  write_file_atomic(path("hb0.json"), hb_json(0, 120, 200, 50.0, 64, 0, 96));
  write_file_atomic(path("hb1.json"), hb_json(1, 80, 200, 40.0, 32, 3, 64, 1));
  view.note_journal(0, 0, 4096);
  view.note_journal(1, 0, 4096);
  view.poll(1.0);

  EXPECT_EQ(view.completed(), 200u);
  EXPECT_EQ(view.checkpointed(), 160u);
  EXPECT_EQ(view.sink_lag_bytes(), 96u);
  EXPECT_EQ(view.sink_dropped(), 3u);
  EXPECT_EQ(view.restart_count(), 1);
  EXPECT_DOUBLE_EQ(view.rate_per_sec(), 90.0);
  // 400 total - 200 done over 90/s.
  EXPECT_NEAR(view.eta_sec(), 200.0 / 90.0, 1e-9);
  EXPECT_EQ(view.worker(0).completed, 120u);
  EXPECT_EQ(view.worker(1).shard_stragglers, 1u);
  EXPECT_EQ(view.worker(1).sink_dropped, 3u);
  EXPECT_FALSE(view.dashboard_line().empty());
}

TEST_F(FleetViewTest, CorruptHeartbeatOrSidecarIsLeftOutOfThePoll) {
  FleetView view = make_view();
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 100, 0);
  view.set_lifecycle(1, WorkerLifecycle::kRunning, 101, 0);
  write_file_atomic(path("hb0.json"), hb_json(0, 120, 200, 50.0, 64, 2, 96));
  MetricsRegistry reg;
  reg.counter("fault.injected").inc(7);
  std::ostringstream os;
  SnapshotWriter w(os);
  w.write(reg);
  write_file_atomic(path("s0.jsonl"), os.str());
  write_file_atomic(path("s1.jsonl"), os.str());
  view.poll(1.0);
  ASSERT_EQ(view.worker(0).completed, 120u);
  ASSERT_EQ(view.merged_metrics().find_counter("fault.injected")->value(),
            14u);

  // A string where a count belongs: the heartbeat is refused, and the
  // worker keeps the fields of its last good heartbeat instead of zeros.
  std::string hb = hb_json(0, 130, 200, 60.0, 8, 2, 100);
  hb.replace(hb.find("130"), 3, "\"130\"");
  write_file_atomic(path("hb0.json"), hb);
  // Unit 1's sidecar grows a line with an unknown key: left out whole.
  append_file(path("s1.jsonl"),
              "{\"seq\":1,\"kind\":\"delta\",\"counters\":{},"
              "\"gauges\":{},\"histograms\":{},\"extra\":0}\n");
  view.poll(2.0);
  EXPECT_EQ(view.worker(0).completed, 120u);
  EXPECT_EQ(view.worker(0).total, 200u);
  EXPECT_DOUBLE_EQ(view.worker(0).recent_per_sec, 50.0);
  EXPECT_EQ(view.worker(0).sink_lag_bytes, 64u);
  EXPECT_EQ(view.worker(0).checkpointed, 96u);
  EXPECT_EQ(view.merged_metrics().find_counter("fault.injected")->value(),
            7u);

  // A missing key, an extra key and trailing bytes are refused as well.
  std::string missing = hb_json(0, 140, 200, 1.0);
  missing.erase(missing.find(",\"stragglers\":0"), 15);
  std::string extra = hb_json(0, 140, 200, 1.0);
  extra.insert(1, "\"x\":1,");
  const std::string trailing = hb_json(0, 140, 200, 1.0) + "{}\n";
  for (const std::string& bad : {missing, extra, trailing}) {
    write_file_atomic(path("hb0.json"), bad);
    view.poll(3.0);
    EXPECT_EQ(view.worker(0).completed, 120u) << bad;
  }
  write_file_atomic(path("hb0.json"), hb_json(0, 140, 200, 1.0));
  view.poll(4.0);
  EXPECT_EQ(view.worker(0).completed, 140u);
}

TEST_F(FleetViewTest, StatusJsonMatchesSchema) {
  FleetView view = make_view();
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 100, 0);
  view.set_lifecycle(1, WorkerLifecycle::kRunning, 101, 0);
  write_file_atomic(path("hb0.json"), hb_json(0, 120, 200, 50.0));
  write_file_atomic(path("hb1.json"), hb_json(1, 80, 200, 40.0));
  MetricsRegistry reg;
  reg.counter("fault.injected").inc(200);
  reg.histogram("fault.latency_steps").observe(4);
  {
    std::ostringstream os;
    SnapshotWriter w(os);
    w.write(reg);
    write_file_atomic(path("s0.jsonl"), os.str());
  }
  view.poll(1.0);

  const std::string doc = view.status_json("running");
  const test::JsonValue root = test::JsonParser(doc).parse();
  ASSERT_TRUE(root.is_object()) << doc;
  const test::JsonObject& top = root.obj();
  EXPECT_EQ(top.at("schema").str(), "xentry.fleet.status.v1");
  EXPECT_EQ(top.at("state").str(), "running");

  const test::JsonObject& fleet = top.at("fleet").obj();
  EXPECT_EQ(fleet.at("seed").num(), 31);
  EXPECT_EQ(fleet.at("injections").num(), 400);
  EXPECT_EQ(fleet.at("units").num(), 4);
  EXPECT_EQ(fleet.at("workers").num(), 2);

  const test::JsonObject& progress = top.at("progress").obj();
  EXPECT_EQ(progress.at("completed").num(), 200);
  EXPECT_EQ(progress.at("total").num(), 400);

  EXPECT_EQ(top.at("sink").obj().at("dropped").num(), 0);

  const test::JsonObject& health = top.at("health").obj();
  EXPECT_EQ(health.at("stalled").num(), 0);
  EXPECT_EQ(health.at("restarts").num(), 0);

  const test::JsonArray& workers = top.at("workers").arr();
  ASSERT_EQ(workers.size(), 2u);
  const test::JsonObject& w0 = workers[0].obj();
  EXPECT_EQ(w0.at("worker").num(), 0);
  EXPECT_EQ(w0.at("state").str(), "running");
  EXPECT_EQ(w0.at("completed").num(), 120);
  EXPECT_EQ(w0.at("units").arr().size(), 2u);

  // The merged registry rides along, histogram percentiles included.
  EXPECT_TRUE(top.at("metrics").is_object());
  EXPECT_NE(doc.find("fault.latency_steps"), std::string::npos);
  EXPECT_NE(doc.find("p99"), std::string::npos);

  // write_status publishes the same document plus a trailing newline.
  ASSERT_TRUE(view.write_status(path("status.json"), "running"));
  EXPECT_EQ(slurp(path("status.json")), doc + "\n");
}

TEST_F(FleetViewTest, StallDetectionBySignalStaleness) {
  FleetView view = make_view(/*stall_timeout=*/10.0);
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 100, 0);
  view.set_lifecycle(1, WorkerLifecycle::kRunning, 101, 0);
  write_file_atomic(path("hb0.json"), hb_json(0, 10, 200, 5.0));
  write_file_atomic(path("hb1.json"), hb_json(1, 10, 200, 5.0));
  view.poll(0.0);
  EXPECT_EQ(view.stalled_count(), 0);

  // Worker 1 keeps beating (its elapsed field moves); worker 0 goes dark.
  write_file_atomic(path("hb1.json"), hb_json(1, 30, 200, 5.0, 0, 0, 0, 0,
                                              /*elapsed=*/11.0));
  view.poll(11.0);
  EXPECT_TRUE(view.worker(0).stalled);
  EXPECT_FALSE(view.worker(1).stalled);
  EXPECT_EQ(view.stalled_count(), 1);

  // Journal growth alone counts as a liveness signal.
  view.note_journal(0, 0, 8192);
  view.poll(12.0);
  EXPECT_FALSE(view.worker(0).stalled);

  // A restart resets the stall clock: no instant re-flag on respawn.
  view.set_lifecycle(0, WorkerLifecycle::kRestarting, -1, 1);
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 102, 1);
  view.poll(40.0);
  EXPECT_FALSE(view.worker(0).stalled);
}

TEST_F(FleetViewTest, FlagsWorkerStragglersAgainstFleetMedian) {
  // Worker 1 runs at a tenth of worker 0's per-unit rate.
  FleetView view = make_view(/*stall_timeout=*/30.0,
                             /*straggler_fraction=*/0.5);
  view.set_lifecycle(0, WorkerLifecycle::kRunning, 100, 0);
  view.set_lifecycle(1, WorkerLifecycle::kRunning, 101, 0);
  write_file_atomic(path("hb0.json"), hb_json(0, 100, 200, 100.0));
  write_file_atomic(path("hb1.json"), hb_json(1, 10, 200, 10.0));
  view.poll(1.0);
  EXPECT_FALSE(view.worker(0).straggler);
  EXPECT_TRUE(view.worker(1).straggler);
  EXPECT_EQ(view.straggler_count(), 1);

  // A finished worker is no longer a straggler, however slow it was.
  write_file_atomic(path("hb1.json"), hb_json(1, 200, 200, 0.0));
  view.poll(2.0);
  EXPECT_FALSE(view.worker(1).straggler);
  EXPECT_EQ(view.straggler_count(), 0);
}

}  // namespace
}  // namespace xentry::obs
