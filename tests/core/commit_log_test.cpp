// Commit-log robustness: with one checkpoint generation the durable loops
// commit a snapshot plus an append-only log of frames
// (util::JournalCommitter). Every shape a crash or bit rot can leave —
// a torn last frame, a corrupted middle frame, a log that extends another
// snapshot, a log left beside a removed checkpoint — must load as the last
// intact commit, say where replay stopped, and resume bit-identically.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/checkpoint_keys.hpp"
#include "core/simulator.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"

namespace billcap::core {
namespace {

using util::DurabilityStats;
using util::Journal;
using util::JournalCommitter;
using util::LogReplay;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string log_of(const std::string& path) {
  return JournalCommitter::log_path(path);
}

void remove_with_log(const std::string& path) {
  std::remove(path.c_str());
  std::remove(log_of(path).c_str());
}

std::uint64_t hash_of(const std::string& text) {
  util::Fnv1a fnv;
  fnv.mix_bytes(text);
  return fnv.hash;
}

SimulationConfig month_config() {
  SimulationConfig config;
  config.monthly_budget = 1.5e6;
  config.seed = 2012;
  config.fault_rates.outage_rate = 0.003;
  config.fault_rates.stale_rate = 0.02;
  return config;
}

/// A fresh one-generation attempt that stops after `hours` commits: the
/// first is a snapshot, each later one a frame of the log.
Simulator::ResumableOutcome commit_hours(const Simulator& sim,
                                         const std::string& path,
                                         std::size_t hours) {
  remove_with_log(path);
  Simulator::ResumeControls controls;
  controls.max_hours = hours;
  return sim.run_resumable(Strategy::kCostCapping, path, false, {}, controls);
}

/// Byte offsets at which the log's frames start.
std::vector<std::size_t> frame_starts(const std::string& log) {
  std::vector<std::size_t> starts;
  for (std::size_t at = log.find("billcap-log-frame v1\n");
       at != std::string::npos; at = log.find("billcap-log-frame v1\n", at + 1))
    starts.push_back(at);
  return starts;
}

void expect_months_bitwise_equal(const MonthlyResult& want,
                                 const MonthlyResult& got) {
  EXPECT_EQ(want.total_cost, got.total_cost);
  EXPECT_EQ(want.total_served_premium, got.total_served_premium);
  EXPECT_EQ(want.total_served_ordinary, got.total_served_ordinary);
  EXPECT_EQ(want.degraded_hours, got.degraded_hours);
  ASSERT_EQ(want.hours.size(), got.hours.size());
  for (std::size_t h = 0; h < want.hours.size(); ++h) {
    EXPECT_EQ(want.hours[h].cost, got.hours[h].cost) << "hour " << h;
    EXPECT_EQ(want.hours[h].site_lambda, got.hours[h].site_lambda)
        << "hour " << h;
  }
}

TEST(CommitLogTest, TornTailAtEveryOffsetOfTheLastFrameReplaysToThePrevious) {
  const Simulator sim(month_config());
  const std::string path = temp_path("billcap_commit_log_torn.j");
  ASSERT_TRUE(commit_hours(sim, path, 6).stopped);
  const std::string log = slurp(log_of(path));
  const std::vector<std::size_t> starts = frame_starts(log);
  ASSERT_EQ(starts.size(), 5u);  // hours 2..6 on top of the hour-1 snapshot
  ASSERT_EQ(load_checkpoint(path).next_hour, 6u);

  // Cut exactly at the last frame's start: a clean log of four frames.
  spit(log_of(path), log.substr(0, starts.back()));
  const CheckpointState previous = load_checkpoint(path);
  ASSERT_EQ(previous.next_hour, 5u);
  const std::string previous_text = CheckpointWriter().encode(previous);

  for (std::size_t cut = starts.back() + 1; cut < log.size(); ++cut) {
    spit(log_of(path), log.substr(0, cut));
    LogReplay replay;
    const Journal j = Journal::load(path, keys::kCheckpointMagic,
                                    keys::kCheckpointVersion, &replay);
    ASSERT_EQ(replay.frames, 4u) << "cut at byte " << cut;
    ASSERT_NE(replay.stop.find("torn tail"), std::string::npos)
        << "cut at byte " << cut << ": " << replay.stop;
    ASSERT_EQ(CheckpointWriter().encode(load_checkpoint(path)), previous_text)
        << "cut at byte " << cut;
  }
  remove_with_log(path);
}

TEST(CommitLogTest, BitFlipInAMiddleFrameStopsReplayThereAndIsReported) {
  const SimulationConfig config = month_config();
  const Simulator sim(config);
  const MonthlyResult want = sim.run(Strategy::kCostCapping);
  const std::string path = temp_path("billcap_commit_log_bitflip.j");
  ASSERT_TRUE(commit_hours(sim, path, 10).stopped);
  std::string log = slurp(log_of(path));
  const std::vector<std::size_t> starts = frame_starts(log);
  ASSERT_EQ(starts.size(), 9u);

  // Rot one bit in the middle of frame 5 (the commit of hour 6): frames
  // 1-4 still apply, frame 5 and everything after it do not.
  log[(starts[4] + starts[5]) / 2] ^= 0x01;
  spit(log_of(path), log);
  EXPECT_EQ(load_checkpoint(path).next_hour, 5u);

  Simulator::ResumableOutcome out =
      sim.run_resumable(Strategy::kCostCapping, path, true);
  EXPECT_FALSE(out.crashed);
  EXPECT_EQ(out.resumed_from, 5u);
  EXPECT_EQ(out.resumed_generation, 0u);
  ASSERT_EQ(out.resume_skipped.size(), 1u);
  EXPECT_NE(out.resume_skipped[0].find(log_of(path)), std::string::npos);
  EXPECT_NE(out.resume_skipped[0].find("after frame 4, frame 5 rejected"),
            std::string::npos)
      << out.resume_skipped[0];
  expect_months_bitwise_equal(want, out.result);
  remove_with_log(path);
}

TEST(CommitLogTest, LogThatExtendsAnotherSnapshotIsIgnored) {
  const std::string path = temp_path("billcap_commit_log_base.j");
  remove_with_log(path);
  Journal first("commit-log-test", 1);
  first.set_u64("n", 0);
  {
    JournalCommitter committer(path, 1);
    committer.commit_snapshot(first.serialize());
    committer.commit_frame("n=1\nextra=x\n");
  }
  LogReplay replay;
  Journal j = Journal::load(path, "commit-log-test", 1, &replay);
  EXPECT_EQ(j.get_u64("n"), 1u);
  EXPECT_EQ(j.get("extra"), "x");
  EXPECT_EQ(replay.frames, 1u);
  EXPECT_TRUE(replay.stop.empty()) << replay.stop;

  // A different snapshot renamed in over the old one: the log still names
  // the old checksum, so none of its frames apply and nothing is reported.
  Journal second("commit-log-test", 1);
  second.set_u64("n", 7);
  second.save_atomic(path);
  replay = LogReplay{};
  j = Journal::load(path, "commit-log-test", 1, &replay);
  EXPECT_EQ(j.get_u64("n"), 7u);
  EXPECT_FALSE(j.has("extra"));
  EXPECT_EQ(replay.frames, 0u);
  EXPECT_TRUE(replay.stop.empty()) << replay.stop;

  // A rotted header loses the log's frames, and says so.
  {
    JournalCommitter committer(path, 1);
    committer.commit_snapshot(first.serialize());
    committer.commit_frame("n=1\n");
  }
  std::string log = slurp(log_of(path));
  log[3] ^= 0x01;
  spit(log_of(path), log);
  replay = LogReplay{};
  j = Journal::load(path, "commit-log-test", 1, &replay);
  EXPECT_EQ(j.get_u64("n"), 0u);
  EXPECT_NE(replay.stop.find("unreadable header"), std::string::npos)
      << replay.stop;
  remove_with_log(path);
}

TEST(CommitLogTest, FreshRunDiscardsAStaleLogBesideARemovedSnapshot) {
  const Simulator sim(month_config());
  const std::string path = temp_path("billcap_commit_log_stale.j");
  static volatile std::sig_atomic_t stop = 0;
  Simulator::ResumeControls stopped;
  stopped.stop_flag = &stop;

  // The shape a cleanup that removes only the snapshot leaves behind. A run
  // that starts fresh, with resume off or with nothing to resume,
  // drops that log before it writes anything.
  for (const bool resume : {false, true}) {
    ASSERT_TRUE(commit_hours(sim, path, 5).stopped);
    std::remove(path.c_str());
    ASSERT_TRUE(std::filesystem::exists(log_of(path)));
    stop = 1;
    const Simulator::ResumableOutcome out = sim.run_resumable(
        Strategy::kCostCapping, path, resume, {}, stopped);
    EXPECT_TRUE(out.stopped);
    EXPECT_EQ(out.durability.snapshots + out.durability.appends, 0u);
    EXPECT_FALSE(std::filesystem::exists(path)) << "resume " << resume;
    EXPECT_FALSE(std::filesystem::exists(log_of(path))) << "resume " << resume;
  }
  stop = 0;

  // The fresh run's own commits then replay as themselves.
  Simulator::ResumeControls three;
  three.max_hours = 3;
  ASSERT_TRUE(
      sim.run_resumable(Strategy::kCostCapping, path, false, {}, three).stopped);
  EXPECT_EQ(load_checkpoint(path).next_hour, 3u);
  remove_with_log(path);
}

TEST(CommitLogTest, SteadyStateCommitIsOneFdatasyncWithoutRenameOrDirSync) {
  const std::string path = temp_path("billcap_commit_log_stats.j");
  remove_with_log(path);
  Journal j("commit-log-test", 1);
  j.set_u64("n", 0);
  JournalCommitter committer(path, 1);
  ASSERT_TRUE(committer.wants_snapshot());
  committer.commit_snapshot(j.serialize());
  const DurabilityStats snap = committer.stats();
  EXPECT_EQ(snap.snapshots, 1u);
  EXPECT_EQ(snap.appends, 0u);
  EXPECT_EQ(snap.fsyncs, 1u);      // the snapshot's temp file
  EXPECT_EQ(snap.renames, 1u);     // temp -> path
  EXPECT_EQ(snap.dir_fsyncs, 2u);  // after the rename, after the log opens
  EXPECT_EQ(snap.fdatasyncs, 1u);  // the log header
  EXPECT_EQ(snap.bytes, slurp(path).size() + slurp(log_of(path)).size());

  ASSERT_FALSE(committer.wants_snapshot());
  committer.commit_frame("n=1\n");
  const DurabilityStats frame = committer.stats();
  EXPECT_EQ(frame.appends - snap.appends, 1u);
  EXPECT_EQ(frame.fdatasyncs - snap.fdatasyncs, 1u);
  EXPECT_EQ(frame.fsyncs, snap.fsyncs);
  EXPECT_EQ(frame.renames, snap.renames);
  EXPECT_EQ(frame.dir_fsyncs, snap.dir_fsyncs);
  EXPECT_EQ(frame.snapshots, snap.snapshots);
  EXPECT_EQ(Journal::load(path, "commit-log-test", 1).get_u64("n"), 1u);
  remove_with_log(path);
}

TEST(CommitLogTest, LogRestartsWithASnapshotPastTheCompactionSize) {
  const std::string path = temp_path("billcap_commit_log_compact.j");
  remove_with_log(path);
  Journal j("commit-log-test", 1);
  j.set_u64("n", 0);
  const std::string pad(4000, 'p');
  JournalCommitter committer(path, 1);
  committer.commit_snapshot(j.serialize());
  std::uint64_t n = 0;
  while (!committer.wants_snapshot())
    committer.commit_frame("n=" + std::to_string(++n) + "\npad=" + pad + "\n");
  EXPECT_GE(slurp(log_of(path)).size(), JournalCommitter::kCompactBytes);
  EXPECT_EQ(n, committer.stats().appends);
  EXPECT_EQ(Journal::load(path, "commit-log-test", 1).get_u64("n"), n);

  // The next commit is a snapshot that restarts the log: header only.
  Journal next("commit-log-test", 1);
  next.set_u64("n", n + 1);
  committer.commit_snapshot(next.serialize());
  EXPECT_EQ(committer.stats().snapshots, 2u);
  EXPECT_LT(slurp(log_of(path)).size(), 100u);
  EXPECT_FALSE(committer.wants_snapshot());
  committer.commit_frame("n=" + std::to_string(n + 2) + "\n");
  EXPECT_EQ(Journal::load(path, "commit-log-test", 1).get_u64("n"), n + 2);
  EXPECT_FALSE(Journal::load(path, "commit-log-test", 1).has("pad"));
  remove_with_log(path);
}

TEST(CommitLogTest, MonthCommitsOneSnapshotThenOnlyFrames) {
  // At kCompactBytes = 1 MiB a whole month's frames (~1.4 kB each) fit in
  // one log: the month writes one snapshot, then one frame per hour. With
  // two generations every commit stays a rotated snapshot.
  const Simulator sim(month_config());
  const std::string path = temp_path("billcap_commit_log_month.j");
  remove_with_log(path);
  const Simulator::ResumableOutcome one =
      sim.run_resumable(Strategy::kCostCapping, path, false);
  ASSERT_FALSE(one.crashed);
  const std::size_t hours = one.result.hours.size();
  const DurabilityStats& d = one.durability;
  EXPECT_EQ(d.snapshots, 1u);
  EXPECT_EQ(d.appends, hours - 1);
  EXPECT_EQ(d.fdatasyncs, hours);  // one per frame, one for the log header
  EXPECT_EQ(d.fsyncs, 1u);
  EXPECT_EQ(d.renames, 1u);
  EXPECT_EQ(d.dir_fsyncs, 2u);
  EXPECT_EQ(d.bytes, slurp(path).size() + slurp(log_of(path)).size());
  EXPECT_EQ(load_checkpoint(path).next_hour, hours);
  remove_with_log(path);

  Simulator::ResumeControls two;
  two.keep_generations = 2;
  for (std::size_t g = 0; g < 2; ++g)
    std::remove(Journal::generation_path(path, g).c_str());
  const Simulator::ResumableOutcome rotated =
      sim.run_resumable(Strategy::kCostCapping, path, false, {}, two);
  EXPECT_EQ(rotated.durability.snapshots, hours);
  EXPECT_EQ(rotated.durability.appends, 0u);
  EXPECT_EQ(rotated.durability.fdatasyncs, 0u);
  EXPECT_EQ(rotated.durability.renames, hours);
  EXPECT_FALSE(std::filesystem::exists(log_of(path)));
  for (std::size_t g = 0; g < 2; ++g)
    std::remove(Journal::generation_path(path, g).c_str());
}

/// The encoded checkpoint with its wall-clock solve times zeroed: the bytes
/// two runs of the same month agree on.
std::string encode_without_timing(CheckpointState st) {
  st.partial.max_solve_ms = 0.0;
  for (HourRecord& rec : st.partial.hours) rec.solve_ms = 0.0;
  return CheckpointWriter().encode(st);
}

TEST(CommitLogTest, ReplayedMonthMatchesEveryCommitThroughCrashes) {
  // A controller crash every 7 hours, alternating after / before the
  // hour's commit, resumed until the month completes. The same month is
  // run twice: with two generations every commit is a whole snapshot, with
  // one most commits are frames. At every observation point (each hour,
  // just before its commit, and after each attempt) the one-generation
  // checkpoint, loaded through its log and re-encoded, must be
  // byte-identical to the snapshot the two-generation run had on disk
  // (solve times, which are wall-clock telemetry, zeroed on both sides),
  // and must carry exactly the hour records this run produced.
  SimulationConfig config = month_config();
  for (std::size_t h = 7, i = 0; h < 720; h += 7, ++i)
    config.fault_plan.crashes.push_back({h, i % 2 == 1});
  const Simulator sim(config);

  const auto run = [&](const std::string& path, std::size_t keep,
                       DurabilityStats& total) {
    for (std::size_t g = 0; g < keep; ++g)
      std::remove(Journal::generation_path(path, g).c_str());
    std::remove(log_of(path).c_str());
    std::vector<std::uint64_t> seen;
    std::vector<HourRecord> produced;  // the month's records, by hour
    std::size_t hour_mismatches = 0;
    const auto observe = [&] {
      const CheckpointState st = load_checkpoint(path);
      CheckpointState truth = st;
      ASSERT_LE(truth.partial.hours.size(), produced.size());
      truth.partial.hours.assign(
          produced.begin(),
          produced.begin() +
              static_cast<std::ptrdiff_t>(st.partial.hours.size()));
      if (CheckpointWriter().encode(truth) != CheckpointWriter().encode(st))
        ++hour_mismatches;
      seen.push_back(hash_of(encode_without_timing(st)));
    };
    const auto on_hour = [&](const HourRecord& rec) {
      if (rec.hour > 0) observe();  // the previous hour's commit
      if (produced.size() <= rec.hour) produced.resize(rec.hour + 1);
      produced[rec.hour] = rec;
    };
    Simulator::ResumeControls controls;
    controls.keep_generations = keep;
    Simulator::ResumableOutcome out;
    std::size_t attempts = 0;
    do {
      out = sim.run_resumable(Strategy::kCostCapping, path, attempts > 0,
                              on_hour, controls);
      ++attempts;
      total.appends += out.durability.appends;
      total.snapshots += out.durability.snapshots;
      observe();
    } while (out.crashed && !HasFatalFailure());
    EXPECT_EQ(attempts, config.fault_plan.crashes.size() + 1);
    EXPECT_EQ(out.result.hours.size(), 720u);
    EXPECT_EQ(hour_mismatches, 0u) << "keep " << keep;
    for (std::size_t g = 0; g < keep; ++g)
      std::remove(Journal::generation_path(path, g).c_str());
    std::remove(log_of(path).c_str());
    return seen;
  };

  DurabilityStats snapshots_only;
  const std::vector<std::uint64_t> want =
      run(temp_path("billcap_commit_log_prop_k2.j"), 2, snapshots_only);
  DurabilityStats logged;
  const std::vector<std::uint64_t> got =
      run(temp_path("billcap_commit_log_prop_k1.j"), 1, logged);

  EXPECT_EQ(snapshots_only.appends, 0u);
  EXPECT_EQ(logged.snapshots, config.fault_plan.crashes.size() + 1);
  EXPECT_GT(logged.appends, 500u);  // most commits went through the log
  ASSERT_EQ(want.size(), got.size());
  EXPECT_GT(want.size(), 720u);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(want[i], got[i]) << "observation " << i;
}

}  // namespace
}  // namespace billcap::core
