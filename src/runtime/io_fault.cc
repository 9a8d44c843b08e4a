#include "runtime/io_fault.h"

namespace manic::runtime {

ScriptedIoFaults::ScriptedIoFaults(Config config)
    : config_(config), tree_(SeedTree(config.seed).Child("io-faults")) {}

IoFaultHook::WriteFault ScriptedIoFaults::WriteAt(std::uint64_t op,
                                                  std::size_t len) const {
  WriteFault fault;
  if (config_.enospc_at_op >= 0 &&
      op == static_cast<std::uint64_t>(config_.enospc_at_op)) {
    fault.kind = WriteFault::Kind::kEnospc;
    return fault;
  }
  if (config_.eintr_prob > 0.0 && tree_.LeafUnit(op, 1) < config_.eintr_prob) {
    fault.kind = WriteFault::Kind::kEintr;
    return fault;
  }
  if (len > 1 && config_.short_write_prob > 0.0 &&
      tree_.LeafUnit(op, 2) < config_.short_write_prob) {
    fault.kind = WriteFault::Kind::kShort;
    // Deliver a seeded fraction of the attempt, at least one byte, so the
    // retry loop has to finish the record across several attempts.
    fault.short_len =
        1 + static_cast<std::size_t>(tree_.LeafUnit(op, 3) *
                                     static_cast<double>(len - 1));
    return fault;
  }
  return fault;
}

bool ScriptedIoFaults::FsyncOkAt(std::uint64_t op) const {
  return config_.fail_fsync_at < 0 ||
         op != static_cast<std::uint64_t>(config_.fail_fsync_at);
}

std::int64_t ScriptedIoFaults::CrashBytesAt(std::uint64_t record) const {
  if (config_.crash_at_record >= 0 &&
      record == static_cast<std::uint64_t>(config_.crash_at_record)) {
    return config_.crash_bytes < 0 ? 0 : config_.crash_bytes;
  }
  return -1;
}

bool ScriptedIoFaults::CrashInCheckpoint(std::uint64_t ordinal,
                                         CheckpointStep step) const {
  return config_.crash_at_checkpoint >= 0 &&
         ordinal == static_cast<std::uint64_t>(config_.crash_at_checkpoint) &&
         step == config_.crash_checkpoint_step;
}

}  // namespace manic::runtime
