#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/market_feed.hpp"
#include "core/simulator.hpp"

namespace billcap::core {

/// Everything the hourly control loop needs to continue a month after the
/// controller process dies: how far it got, the budget ledger's spent
/// total, the partial MonthlyResult (aggregates, FailureReason tallies and
/// every committed HourRecord), the market-feed client's stream state, and
/// the crash-plan cursor. Doubles are persisted bitwise, so a resumed
/// month finishes with a result bit-identical to the uninterrupted run.
struct CheckpointState {
  /// Digest of the (config, strategy) pair that wrote the checkpoint;
  /// loading under a different configuration is refused rather than
  /// silently mixing two months.
  std::uint64_t config_digest = 0;
  Strategy strategy = Strategy::kCostCapping;
  std::size_t next_hour = 0;      ///< first hour not yet committed
  double spent = 0.0;             ///< budget ledger: $ billed so far
  std::size_t crashes_fired = 0;  ///< FaultPlan::ControllerCrash cursor
  std::size_t storms_fired = 0;   ///< FaultPlan::ExitStorm deaths consumed
  /// FaultPlan::CheckpointCorruption cursor. Persisted into the fallback
  /// generation *before* the corrupted one is written, so a resume that
  /// falls back a generation does not re-fire the same corruption.
  std::size_t corruptions_fired = 0;
  MarketFeed::State feed;         ///< retrying feed client's RNG + cursor
  /// Closed-loop market coupler trajectory (breaker clock, damping ladder,
  /// last executed fixed point). All defaults for open-loop months and
  /// when loading pre-coupler checkpoint files.
  MarketCoupler::State coupler;
  MonthlyResult partial;          ///< committed hours + aggregates
};

/// Digest of the simulation configuration fields that determine a month's
/// trajectory (seed, budget, workload shape, fault schedule, feed policy,
/// strategy...). Two configs with equal digests produce the same month.
std::uint64_t checkpoint_digest(const SimulationConfig& config,
                                Strategy strategy);

/// True if a checkpoint file exists at `path` (it may still fail to load).
bool checkpoint_exists(const std::string& path) noexcept;

/// The checkpoint encoder. A month's journal grows by one hour record per
/// commit, so the writer keeps the `h<i>=...` lines it has already encoded
/// and each save encodes only the hours appended since the previous one;
/// the ~60 scalar keys, the checksum and the write stay per-save work.
/// The bytes are exactly what a fresh writer produces for the same state.
///
/// The cache assumes the hour vector only grows between saves, as
/// run_resumable's does. A vector that shrank, or whose last cached record
/// no longer encodes to the cached line (a different month), is
/// re-encoded from scratch.
class CheckpointWriter {
 public:
  /// The full journal text for `state`, checksum line included.
  const std::string& encode(const CheckpointState& state);

  /// Atomically persists `state` (write-temp-then-rename): a kill at any
  /// instant leaves either the previous checkpoint or this one, never a
  /// torn file. Throws std::runtime_error on I/O failure.
  void save(const std::string& path, const CheckpointState& state);

  /// Shifts the generation chain down one slot (see
  /// save_checkpoint_rotated), then saves.
  void save_rotated(const std::string& path, const CheckpointState& state,
                    std::size_t keep_generations);

 private:
  void sync_hours(const std::vector<HourRecord>& hours);

  std::string hour_lines_;           ///< lines of hours [0, cached_hours_)
  std::size_t cached_hours_ = 0;
  std::size_t last_line_begin_ = 0;  ///< offset of the last cached line
  std::string probe_;                ///< re-encoded last line (the guard)
  std::string text_;                 ///< the journal of the latest encode
};

/// One-shot CheckpointWriter::save.
void save_checkpoint(const std::string& path, const CheckpointState& state);

/// Loads and verifies a checkpoint. Throws std::runtime_error when the
/// file is missing, truncated, corrupted (checksum mismatch), from an
/// unsupported format version, or structurally inconsistent.
CheckpointState load_checkpoint(const std::string& path);

/// Like save_checkpoint, but first shifts the existing generation chain
/// down one slot (`path` -> "<path>.1" -> ... -> "<path>.<K-1>", oldest
/// dropped) so the last `keep_generations` checkpoints survive on disk.
/// keep_generations <= 1 degenerates to plain save_checkpoint. One-shot
/// CheckpointWriter::save_rotated.
void save_checkpoint_rotated(const std::string& path,
                             const CheckpointState& state,
                             std::size_t keep_generations);

/// What load_checkpoint_fallback actually recovered, and what it had to
/// step over to get there.
struct CheckpointLoadReport {
  CheckpointState state;
  std::size_t generation = 0;  ///< 0 = newest; g came from "<path>.<g>"
  /// One line per rejected newer generation: its path and why it was
  /// unusable (missing, corrupted, digest mismatch...).
  std::vector<std::string> skipped;
};

/// True if any generation of the rotated set exists at `path` (the newest
/// or any of "<path>.1" ... "<path>.<K-1>").
bool any_checkpoint_generation_exists(const std::string& path,
                                      std::size_t keep_generations) noexcept;

/// The newest-first scan over a rotated generation set that both durable
/// formats (this month checkpoint and the serve journal) resume through.
/// Calls `try_load(gen_path)` on "<path>", "<path>.1", ... in turn (up to
/// `keep_generations`, 0 counting as 1) and returns the index of the first
/// generation it accepts. `try_load` stores the state itself and returns
/// true, returns false when the generation's config digest belongs to
/// another configuration, or throws when it is corrupted. Every passed-over
/// generation appends one line to `skipped`: "<gen_path>: missing",
/// "<gen_path>: config digest mismatch (<what> from a different
/// configuration)" or "<gen_path>: <exception message>". Throws
/// std::runtime_error("<what>: no viable generation among the newest N",
/// followed by the skip lines) when none is accepted.
std::size_t load_newest_generation(
    const std::string& path, std::size_t keep_generations,
    std::string_view what, std::vector<std::string>& skipped,
    const std::function<bool(const std::string& gen_path)>& try_load);

/// Scans generations newest-first and returns the first one that loads
/// cleanly AND matches `expected_digest`; corrupted, truncated, missing or
/// digest-mismatched generations are recorded in `skipped` and passed
/// over. Each generation the scan falls back costs at most the hours
/// between the two saves (one simulated hour for a per-hour checkpointer).
/// Throws std::runtime_error when no viable generation exists.
CheckpointLoadReport load_checkpoint_fallback(const std::string& path,
                                              std::size_t keep_generations,
                                              std::uint64_t expected_digest);

}  // namespace billcap::core
