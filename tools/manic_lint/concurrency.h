// Phase 5 of the whole-program analyzer: static concurrency contracts. The
// serving plane's correctness rests on hand-rolled lock-free protocol (the
// SPSC rings, the single-producer event loop, the closed_through_
// release/acquire handshake) that TSan can only audit on interleavings a
// test actually schedules. This tier checks every path, token-level, whole
// program. Three interlocking passes, all driven by
// tools/manic_lint/concurrency.txt:
//
//   atomics     (error)  every std::atomic load/store/RMW/wait must name an
//                         explicit std::memory_order (rule "atomic-order");
//                         a release-side store with no acquire-side load of
//                         the same atomic anywhere in the program — or the
//                         converse — is a broken publish/consume pair (rule
//                         "atomic-pair"); a relaxed load guarding a read of
//                         non-atomic shared state is the classic
//                         flag-without-fence bug (rule "atomic-guard"); and
//                         seq_cst inside a `hot-path` region is a paid-for
//                         fence nobody asked for (rule "atomic-order",
//                         warning).
//   thread-role (error)  roles name thread entry points (the poll() event
//                         loop, the shard worker); fields are owned-by one
//                         role or declared shared (the audited deposit-slot
//                         handshake). Roles propagate over the whole-program
//                         call graph; code reachable from role A writing a
//                         field owned by role B breaks the single-writer
//                         contract the ingest lane leans on (rule
//                         "thread-role").
//   lock-order  (error)  a whole-program lock-acquisition graph over
//                         runtime::Mutex/MutexLock: an edge A -> B for every
//                         site (direct or through calls) that acquires B
//                         while holding A; any cycle is a potential deadlock
//                         (rule "lock-order"). Condition variables and
//                         atomic::wait sites with no matching notify
//                         anywhere are stalls waiting to happen (rule
//                         "wait-notify").
//
// Spec grammar (one directive per line, '#' comments):
//   role <name> = <pat> [<pat>...]  thread roles; each <pat> is a function
//                                   (Class::Fn, Class::Prefix*, or a bare
//                                   name) reached by exactly that thread
//   owned-by <role> <field>...      fields only <role> code may write; a
//                                   field may be qualified (Class::member_)
//                                   to pin it to implicit-this writes of
//                                   that class
//   shared <field>...               fields two threads touch on purpose
//                                   (e.g. the deposit slots fenced by the
//                                   closed_through_ handshake); the
//                                   thread-role pass leaves them alone, the
//                                   spec line is the audit trail
//
// Suppression: `// manic-lint: allow(concurrency: <rule>)` (or the bare
// rule name) on the finding's line or the line above — the `concurrency:`
// family prefix also lands in the lint.json audit, so every silenced
// finding shows up in the suppression report.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "facts.h"
#include "lint.h"

namespace manic::lint {

struct ConcurrencySpec {
  // role name -> entry-point patterns (trailing '*' = prefix match; a
  // pattern without "::" matches any class's method of that name).
  std::map<std::string, std::vector<std::string>, std::less<>> roles;
  // field pattern ("member_" or "Class::member_") -> owning role.
  std::map<std::string, std::string, std::less<>> owned;
  // field patterns exempt from the ownership check (documented handshakes).
  std::set<std::string, std::less<>> shared;
  bool loaded = false;
};

// Parses spec text. On a malformed line, returns an unloaded spec and sets
// `error` to a human-readable description.
ConcurrencySpec ParseConcurrencySpec(std::string_view text,
                                     std::string* error);

// Reads and parses a spec file; unreadable file => unloaded spec + `error`.
ConcurrencySpec LoadConcurrencySpec(const std::string& path,
                                    std::string* error);

// The atomics pass: explicit-order, publish/consume pairing, relaxed-guard
// (rules "atomic-order", "atomic-pair", "atomic-guard"). Pairing is
// whole-program: the release store and its acquire load usually live in
// different files.
void RunAtomicsPass(const FactsTable& table, const ConcurrencySpec& spec,
                    std::vector<Finding>& out);

// The thread-role pass: propagates the spec's roles over the call graph and
// checks every owned-field write (rule "thread-role").
void RunThreadRolePass(const FactsTable& table, const ConcurrencySpec& spec,
                       std::vector<Finding>& out);

// The lock-order pass: acquisition-graph cycle detection plus wait/notify
// pairing (rules "lock-order", "wait-notify").
void RunLockOrderPass(const FactsTable& table, const ConcurrencySpec& spec,
                      std::vector<Finding>& out);

}  // namespace manic::lint
