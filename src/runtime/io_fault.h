// The I/O fault-injection seam for every durable-file writer (serve WAL,
// replay recordings, checkpoint logs): the same narrow-hook shape as
// sim::FaultHook, but for the syscall layer instead of the network. A writer
// consults the installed hook before each write() attempt, each fsync(), and
// each whole-record append; the hook answers with the fault to simulate —
// short write, EINTR, ENOSPC, fsync failure, or a crash point that kills the
// process after a prescribed number of bytes of the record hit the file.
//
// Every query is a pure function of (script, arguments) — the caller passes
// monotone op/record indices, the hook keeps no mutable state — so a faulted
// run is replayable bit-identically, and tools/crashloop can kill the daemon
// at seeded points and diff recovery against an uncrashed reference. A null
// hook (the production configuration) means no faults; the write loops are
// untouched.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/seed_tree.h"

namespace manic::runtime {

class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;

  // What one write() attempt should do. kShort delivers only `short_len`
  // bytes (the kernel's short-write contract: the caller must loop);
  // kEintr delivers nothing and fails with EINTR; kEnospc fails the write
  // permanently — the device is full.
  struct WriteFault {
    enum class Kind : std::uint8_t { kPass, kShort, kEintr, kEnospc };
    Kind kind = Kind::kPass;
    std::size_t short_len = 0;
  };

  // Consulted before write attempt `op` (a per-writer monotone counter) of
  // `len` bytes.
  virtual WriteFault WriteAt(std::uint64_t /*op*/, std::size_t /*len*/) const {
    return {};
  }

  // False: fsync attempt `op` reports failure (EIO — the page cache could
  // not reach the platter).
  virtual bool FsyncOkAt(std::uint64_t /*op*/) const { return true; }

  // Crash point for whole-record appends: a non-negative return means the
  // writer must emit exactly that many bytes of record `record` (clamped to
  // the record size), make them visible, and then _Exit — a kill mid-append.
  // -1 = no crash at this record.
  virtual std::int64_t CrashBytesAt(std::uint64_t /*record*/) const {
    return -1;
  }

  // The same two seams for the serving plane's checkpoint files
  // (serve/checkpoint.h), `op` counted per file from 0 — for a manifest,
  // fsync op 1 is the directory sync after its rename. By default a
  // checkpoint file sees the faults a log writer would; override these to
  // fault checkpoints alone (a disk with room for the log's small appends
  // but not for a checkpoint). Shard workers write their part files
  // concurrently, so these run on several threads at once.
  virtual WriteFault CheckpointWriteAt(std::uint64_t op,
                                       std::size_t len) const {
    return WriteAt(op, len);
  }
  virtual bool CheckpointFsyncOkAt(std::uint64_t op) const {
    return FsyncOkAt(op);
  }

  // Crash points inside the serving plane's checkpoints (serve/service.h),
  // in commit order: with the manifest half written, right after the commit
  // (before the WAL rolls), and after the roll (before the covered segments
  // are deleted).
  enum class CheckpointStep : std::uint8_t { kMidWrite, kCommitted, kRolled };
  // True: the writer _Exits at `step` of its `ordinal`-th checkpoint (0 =
  // the first one this process writes).
  virtual bool CrashInCheckpoint(std::uint64_t /*ordinal*/,
                                 CheckpointStep /*step*/) const {
    return false;
  }
};

// A seeded fault script over the hook: independent per-op short-write and
// EINTR draws from a SeedTree, one optional ENOSPC op, one optional fsync
// failure, one optional crash point, and one optional checkpoint crash.
// Deterministic by construction —
// the same config yields the same fault sequence on every run.
class ScriptedIoFaults final : public IoFaultHook {
 public:
  struct Config {
    std::uint64_t seed = 0;
    double short_write_prob = 0.0;  // per write attempt
    double eintr_prob = 0.0;        // per write attempt
    std::int64_t enospc_at_op = -1;   // write op index that hits ENOSPC
    std::int64_t fail_fsync_at = -1;  // fsync op index that fails
    std::int64_t crash_at_record = -1;  // record index to die inside
    std::int64_t crash_bytes = 0;       // bytes of that record to emit first
    std::int64_t crash_at_checkpoint = -1;  // checkpoint ordinal to die in
    CheckpointStep crash_checkpoint_step = CheckpointStep::kMidWrite;
  };

  explicit ScriptedIoFaults(Config config);

  WriteFault WriteAt(std::uint64_t op, std::size_t len) const override;
  bool FsyncOkAt(std::uint64_t op) const override;
  std::int64_t CrashBytesAt(std::uint64_t record) const override;
  bool CrashInCheckpoint(std::uint64_t ordinal,
                         CheckpointStep step) const override;

 private:
  Config config_;
  SeedTree tree_;
};

}  // namespace manic::runtime
