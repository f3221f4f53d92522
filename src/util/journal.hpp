#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
// billcap-lint: allow(unordered-iter): Journal's lookup-only key index
#include <unordered_map>
#include <vector>

namespace billcap::util {

/// What Journal::load replayed from the commit log beside the file.
struct LogReplay {
  std::size_t frames = 0;  ///< verified frames applied on top of the file
  /// Why the replay stopped before the end of the log: "<log path>: ..."
  /// naming the last frame applied and the bytes left unreplayed. Empty
  /// when it reached the end, or when there was no log to replay.
  std::string stop;
};

/// A small versioned key/value journal for durable state (checkpoints).
/// The on-disk form is line-oriented text:
///
///   <magic> v<version>
///   <key>=<value>
///   ...
///   checksum <16 hex digits>
///
/// Doubles are stored as the hex of their bit pattern so a load reproduces
/// the written value *bitwise* (no shortest-round-trip subtleties). The
/// trailing FNV-1a checksum covers everything before it, so a truncated or
/// corrupted file is rejected at parse time rather than silently resuming
/// from garbage. save_atomic() writes to "<path>.tmp" and renames, so a
/// crash at any instant leaves either the old journal or the new one,
/// never a torn mix. Keys are indexed: set(), has() and get() cost O(1)
/// each, so parsing a journal of K lines is O(K).
///
/// A journal committed through JournalCommitter with one generation may
/// have a commit log "<path>.log" beside it; load() replays it, so every
/// reader sees the last commit.
class Journal {
 public:
  /// Starts an empty journal with the given magic word and format version.
  Journal(std::string magic, int version);

  const std::string& magic() const noexcept { return magic_; }
  int version() const noexcept { return version_; }

  /// Appends a key/value pair. Keys must be non-empty, unique and free of
  /// '=' and newlines; values must be free of newlines. Violations throw
  /// std::invalid_argument.
  void set(const std::string& key, std::string value);
  void set_u64(const std::string& key, std::uint64_t value);
  void set_size(const std::string& key, std::size_t value);
  /// Stores the double's bit pattern as 16 hex digits (exact round-trip).
  void set_double_bits(const std::string& key, double value);
  /// Space-separated list of bit-pattern doubles.
  void set_double_list(const std::string& key,
                       const std::vector<double>& values);

  bool has(const std::string& key) const noexcept;

  /// Getters throw std::runtime_error when the key is missing or the value
  /// does not parse as the requested type.
  const std::string& get(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;
  std::size_t get_size(const std::string& key) const;
  double get_double_bits(const std::string& key) const;
  std::vector<double> get_double_list(const std::string& key) const;

  /// Full text including header and checksum line.
  std::string serialize() const;
  /// Appends the "<key>=<value>\n" lines of serialize(), without the
  /// header and checksum: the body of a commit-log frame.
  void append_entries(std::string& out) const;

  /// Parses and verifies a serialized journal. Throws std::runtime_error on
  /// a wrong magic, a version newer than `max_version`, a missing or
  /// mismatched checksum (truncation/corruption), or malformed lines.
  static Journal parse(std::string_view text, std::string_view expected_magic,
                       int max_version);

  /// Durable write: serialize to "<path>.tmp", fsync the file, rename over
  /// `path`, then fsync the containing directory so the rename itself
  /// survives power loss (not just process death). Throws
  /// std::runtime_error on I/O failure.
  void save_atomic(const std::string& path) const;

  /// Path of generation `g` of a rotated journal set: generation 0 is
  /// `path` itself (the newest), older generations are "<path>.1",
  /// "<path>.2", ... up to "<path>.<K-1>".
  static std::string generation_path(const std::string& path,
                                     std::size_t generation);

  /// Shifts the existing generations down one slot via renames
  /// ("<path>.<K-2>" -> "<path>.<K-1>", ..., "<path>" -> "<path>.1"; the
  /// oldest is dropped), making room for a fresh save_atomic(path) on top.
  /// Each rename is atomic, so a kill mid-rotation leaves every surviving
  /// generation intact (at worst one is duplicated, never torn). Missing
  /// generations are skipped; keep_generations <= 1 is a no-op.
  static void rotate_generations(const std::string& path,
                                 std::size_t keep_generations);

  /// Loads and verifies a journal file, then replays the commit log
  /// "<path>.log" onto it when that log extends this file (its header
  /// names this file's checksum): each verified frame's keys replace or
  /// extend the loaded ones, and replay stops at the first torn or corrupt
  /// frame. A log that extends another file is ignored. Throws
  /// std::runtime_error on I/O or verification failure of the file itself;
  /// a bad log frame only ends the replay, reported through `replay`.
  static Journal load(const std::string& path, std::string_view expected_magic,
                      int max_version, LogReplay* replay = nullptr);

 private:
  /// Sets `key`, replacing the value when it already exists.
  void upsert(std::string_view key, std::string_view value);
  /// Applies one commit-log record if it verifies as frame `seq`; throws
  /// std::runtime_error, having applied nothing, when it does not.
  void apply_frame(std::string_view frame, std::uint64_t seq);
  void replay_log(const std::string& log_path, std::string_view base,
                  LogReplay* replay);

  /// Hashes std::string and std::string_view alike, so a replayed key is
  /// looked up without building a std::string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::string magic_;
  int version_ = 1;
  std::vector<std::pair<std::string, std::string>> entries_;
  // Lookup only: serialize() walks entries_, in insertion order.
  // billcap-lint: allow(unordered-iter): never iterated
  std::unordered_map<std::string, std::size_t, KeyHash, std::equal_to<>>
      index_;  ///< key -> entry
};

/// Work counters of a commit path: the durable syscalls and bytes its
/// commits cost. Only the calls that succeeded are counted.
struct DurabilityStats {
  std::size_t snapshots = 0;   ///< whole-file commits (temp file + rename)
  std::size_t appends = 0;     ///< frames appended to a commit log
  std::size_t fsyncs = 0;      ///< fsync of a snapshot's temp file
  std::size_t fdatasyncs = 0;  ///< fdatasync of the commit log
  std::size_t dir_fsyncs = 0;  ///< fsync of the containing directory
  std::size_t renames = 0;     ///< renames, generation rotation excluded
  std::size_t bytes = 0;       ///< bytes written: snapshots, headers, frames
};

/// Commits successive versions of one journal file durably. With
/// `keep_generations` >= 2 every commit is a whole snapshot: the generation
/// chain is rotated and the text is written atomically (temp file, fsync,
/// rename, directory fsync), exactly as Journal::rotate_generations plus
/// save_atomic do. With one generation the snapshot is followed by a
/// commit log "<path>.log": its header names the snapshot's checksum, and
/// each later commit appends one self-checksummed frame holding the keys
/// that changed, with one write and one fdatasync. The first commit of a
/// committer, and the first after the log passes kCompactBytes, writes a
/// fresh snapshot and restarts the log. Journal::load replays the log, so
/// a reader sees the last commit either way.
///
/// A crash at any instant leaves the last commit or the one before it:
/// the snapshot is replaced atomically; a log that still names the old
/// snapshot after a new one is renamed in is ignored; a torn frame ends
/// the replay at the frame before it. A run that starts fresh must
/// call discard_log() before its first commit, so no log left by another
/// run can extend a snapshot with the same bytes.
class JournalCommitter {
 public:
  /// Log size at which the next commit writes a snapshot instead of a
  /// frame: about 720 month-checkpoint frames (a whole month) or 670
  /// serve ticks.
  static constexpr std::size_t kCompactBytes = std::size_t{1} << 20;

  JournalCommitter(std::string path, std::size_t keep_generations);
  ~JournalCommitter();
  JournalCommitter(const JournalCommitter&) = delete;
  JournalCommitter& operator=(const JournalCommitter&) = delete;

  /// True when the next commit must be a whole snapshot: always with two
  /// or more generations; with one, when no log is open (the first commit,
  /// or after a failed append) or the log reached kCompactBytes.
  bool wants_snapshot() const noexcept;
  /// Commits `text`, a complete journal (header through checksum line).
  void commit_snapshot(std::string_view text);
  /// Commits the "<key>=<value>\n" lines `entries` on top of the previous
  /// commit: keys it names are replaced or added, others keep their
  /// values. Requires !wants_snapshot(). A failed append throws and closes
  /// the log, so the next commit is a snapshot.
  void commit_frame(std::string_view entries);

  const DurabilityStats& stats() const noexcept { return stats_; }

  /// "<path>.log".
  static std::string log_path(const std::string& path);
  /// Removes the commit log beside `path`, if any. The next snapshot's
  /// directory fsync makes the removal durable.
  static void discard_log(const std::string& path);

 private:
  void close_log() noexcept;

  std::string path_;
  std::size_t keep_generations_;
  int fd_ = -1;                ///< the open log; -1 = next commit snapshots
  std::size_t log_bytes_ = 0;  ///< bytes in the open log
  std::uint64_t next_seq_ = 1;
  std::string frame_;          ///< the frame being appended
  DurabilityStats stats_;
};

/// The pieces of the journal text format, shared by Journal and by writers
/// that assemble a large journal themselves (core::CheckpointWriter keeps
/// its hour records encoded between commits), so every writer emits the
/// same bytes for the same keys and values.
namespace journal_text {

/// Most characters write_u64 produces.
inline constexpr std::size_t kMaxU64Chars = 20;
/// Characters write_double_bits produces.
inline constexpr std::size_t kDoubleBitsChars = 16;

/// Writes `value` in decimal (as Journal::set_u64 stores it) at `out`,
/// which must have room for kMaxU64Chars; returns the end.
inline char* write_u64(char* out, std::uint64_t value) noexcept {
  return std::to_chars(out, out + kMaxU64Chars, value).ptr;
}
/// Writes `value` as kDoubleBitsChars zero-padded lowercase hex digits;
/// returns the end.
inline char* write_hex_u64(char* out, std::uint64_t value) noexcept {
  for (std::size_t i = kDoubleBitsChars; i-- > 0; value >>= 4)
    out[i] = "0123456789abcdef"[value & 0xfu];
  return out + kDoubleBitsChars;
}
/// Writes the double's bit pattern in hex (as Journal::set_double_bits
/// stores it); returns the end.
inline char* write_double_bits(char* out, double value) noexcept {
  return write_hex_u64(out, std::bit_cast<std::uint64_t>(value));
}

/// The space-separated tokens of one journal value.
class Tokens {
 public:
  explicit Tokens(std::string_view text) noexcept : rest_(text) {}

  /// The next token; empty once the value is exhausted.
  std::string_view next() noexcept {
    const std::size_t begin = rest_.find_first_not_of(' ');
    if (begin == std::string_view::npos) return {};
    rest_.remove_prefix(begin);
    const std::size_t end = rest_.find(' ');
    const std::string_view token = rest_.substr(0, end);
    rest_.remove_prefix(token.size());
    return token;
  }

 private:
  std::string_view rest_;
};

/// Appends the header line "<magic> v<version>\n".
void append_header(std::string& out, std::string_view magic, int version);
/// Appends `value` in decimal, as Journal::set_u64 stores it.
void append_u64(std::string& out, std::uint64_t value);
/// Appends the double's bit pattern as 16 lowercase hex digits, as
/// Journal::set_double_bits stores it.
void append_double_bits(std::string& out, double value);
/// Appends the checksum line covering everything already in `out`.
void append_checksum(std::string& out);
/// The I/O half of Journal::save_atomic: writes the finished `text` to
/// "<path>.tmp", fsyncs it, renames it over `path` and fsyncs the
/// directory, counting into `stats` when given. Throws std::runtime_error
/// on I/O failure.
void write_atomic(const std::string& path, std::string_view text,
                  DurabilityStats* stats = nullptr);

}  // namespace journal_text

}  // namespace billcap::util
