#include "concurrency.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "lexer.h"
#include "rules.h"

namespace manic::lint {
namespace {

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

// Keywords that precede '(' without being function calls or definitions.
// `constexpr` is here for `if constexpr (...) { ... }`, which would
// otherwise parse as a definition of a function named constexpr.
bool ControlWord(std::string_view s) {
  static const std::set<std::string, std::less<>> kWords = {
      "alignas",  "alignof",  "case",      "catch",    "co_await",
      "co_return", "co_yield", "constexpr", "decltype", "defined",
      "delete",   "for",      "if",        "new",      "noexcept",
      "requires", "return",   "sizeof",    "static_assert",
      "switch",   "throw",    "typeid",    "using",    "while"};
  return kWords.count(s) > 0;
}

bool IsCallHead(const std::vector<Token>& toks, std::size_t i) {
  return IsIdent(toks[i]) && i + 1 < toks.size() &&
         IsPunct(toks[i + 1], "(") && !ControlWord(toks[i].text);
}

// toks[i] is the member name of a `base.member` / `base->member` access.
// (The lexer splits compound operators, so '->' arrives as '-' '>').
bool IsMemberName(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  if (IsPunct(toks[i - 1], ".")) return true;
  return i >= 2 && IsPunct(toks[i - 1], ">") && IsPunct(toks[i - 2], "-");
}

std::size_t MatchClose(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == "}") {
      if (--depth == 0) return j;
    }
  }
  return toks.size();
}

std::size_t MatchOpen(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == ")" || t.text == "]" || t.text == "}") {
      ++depth;
    } else if (t.text == "(" || t.text == "[" || t.text == "{") {
      if (--depth == 0) return j;
    }
    if (j == 0) break;
  }
  return 0;
}

// Every finding honors both its own rule name and the `concurrency` family
// name, so `// manic-lint: allow(concurrency: atomic-order)` silences it
// while leaving both names visible in the suppression audit.
void Emit(const TuFacts& file, int line, const char* rule, Severity severity,
          std::string message, std::vector<Finding>& out) {
  if (FactsTable::IsAllowed(file, line, rule)) return;
  if (FactsTable::IsAllowed(file, line, "concurrency")) return;
  out.push_back({file.path, line, rule, severity, std::move(message)});
}

void SortUnique(std::vector<Finding>& found, std::vector<Finding>& out) {
  std::sort(found.begin(), found.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.message) <
                     std::tie(b.file, b.line, b.message);
            });
  found.erase(std::unique(found.begin(), found.end(),
                          [](const Finding& a, const Finding& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.message == b.message;
                          }),
              found.end());
  out.insert(out.end(), std::make_move_iterator(found.begin()),
             std::make_move_iterator(found.end()));
}

// ---- shared structure scan -------------------------------------------------

// Class/struct definition spans (token index ranges). Innermost spans come
// later, so the enclosing class of an index is the LAST span containing it.
struct ClassSpan {
  std::string name;
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<ClassSpan> ScanClassSpans(const std::vector<Token>& toks) {
  std::vector<ClassSpan> spans;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!IsIdent(t) ||
        (t.text != "class" && t.text != "struct" && t.text != "union")) {
      continue;
    }
    if (i > 0 && IsIdent(toks[i - 1]) && toks[i - 1].text == "enum") continue;
    if (!IsIdent(toks[i + 1])) continue;  // anonymous / template parameter
    const std::string& name = toks[i + 1].text;
    // Scan to the body brace; `;` `(` `)` `>` `,` `=` mean forward
    // declaration, template parameter, or type position — not a definition.
    std::size_t j = i + 2;
    while (j < toks.size()) {
      if (IsPunct(toks[j], "<")) {
        j = SkipAngles(toks, j);
        continue;
      }
      if (IsPunct(toks[j], "{")) break;
      if (toks[j].kind == TokKind::kPunct &&
          (toks[j].text == ";" || toks[j].text == "(" ||
           toks[j].text == ")" || toks[j].text == ">" ||
           toks[j].text == "," || toks[j].text == "=")) {
        j = toks.size();
        break;
      }
      ++j;
    }
    if (j >= toks.size()) continue;
    spans.push_back({name, j, MatchClose(toks, j)});
  }
  std::sort(spans.begin(), spans.end(),
            [](const ClassSpan& a, const ClassSpan& b) {
              return std::tie(a.begin, b.end) < std::tie(b.begin, a.end);
            });
  return spans;
}

std::string EnclosingClass(const std::vector<ClassSpan>& spans,
                           std::size_t i) {
  std::string cls;
  for (const ClassSpan& s : spans) {
    if (s.begin < i && i < s.end) cls = s.name;
  }
  return cls;
}

// Thread-safety annotation macros (GUARDED_BY, ACQUIRE, REQUIRES, ...) sit
// between a definition's ')' and its '{'; they look like SHOUTY calls.
bool AnnotationMacro(std::string_view s) {
  if (s.size() < 3) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isupper(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
}

// A function definition: qualified name, body token range, callee names.
struct FnDef {
  std::string cls;   // enclosing class or `Class::` qualifier ("" = free)
  std::string name;  // unqualified
  const TuFacts* file = nullptr;
  int line = 0;
  std::size_t body_begin = 0;  // index of '{'
  std::size_t body_end = 0;    // matching '}'
  std::vector<std::string> callees;
};

std::string QualName(const FnDef& f) {
  return f.cls.empty() ? f.name : f.cls + "::" + f.name;
}

// Walks from the ')' of a candidate definition head across cv-qualifiers,
// noexcept(...), annotation macros, trailing return types, and constructor
// init lists to the body '{'. Returns the body index or toks.size().
std::size_t FindBodyBrace(const std::vector<Token>& toks, std::size_t close) {
  std::size_t j = close + 1;
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (IsPunct(t, "{")) return j;
    if (IsIdent(t) && (t.text == "const" || t.text == "override" ||
                       t.text == "final" || t.text == "try")) {
      ++j;
      continue;
    }
    if (IsIdent(t) && (t.text == "noexcept" || AnnotationMacro(t.text))) {
      ++j;
      if (j < toks.size() && IsPunct(toks[j], "(")) {
        j = MatchClose(toks, j) + 1;
      }
      continue;
    }
    if (IsPunct(t, "-") && j + 1 < toks.size() && IsPunct(toks[j + 1], ">")) {
      // Trailing return type: scan to the '{' or ';' at depth zero.
      j += 2;
      while (j < toks.size() && !IsPunct(toks[j], "{") &&
             !IsPunct(toks[j], ";")) {
        if (IsPunct(toks[j], "<")) {
          j = SkipAngles(toks, j);
          continue;
        }
        ++j;
      }
      continue;
    }
    if (IsPunct(t, ":") &&
        !(j + 1 < toks.size() && IsPunct(toks[j + 1], ":"))) {
      // Constructor init list: `name(...)` / `name{...}` groups separated
      // by commas; the first group-close not followed by ',' precedes the
      // body brace.
      std::size_t k = j + 1;
      while (k < toks.size()) {
        while (k < toks.size() &&
               (IsIdent(toks[k]) || IsPunct(toks[k], ":") ||
                IsPunct(toks[k], "."))) {
          ++k;
        }
        if (k < toks.size() && IsPunct(toks[k], "<")) {
          k = SkipAngles(toks, k);
          continue;
        }
        if (k >= toks.size() ||
            (!IsPunct(toks[k], "(") && !IsPunct(toks[k], "{"))) {
          return toks.size();
        }
        k = MatchClose(toks, k) + 1;
        if (k < toks.size() && IsPunct(toks[k], ",")) {
          ++k;
          continue;
        }
        break;
      }
      if (k < toks.size() && IsPunct(toks[k], "{")) return k;
      return toks.size();
    }
    return toks.size();  // ';' '=' ',' ')' ... declaration, not definition
  }
  return toks.size();
}

void CollectDefs(const TuFacts& file, std::vector<FnDef>& defs) {
  const std::vector<Token>& toks = file.tokens;
  const std::vector<ClassSpan> spans = ScanClassSpans(toks);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsCallHead(toks, i) || IsMemberName(toks, i)) continue;
    const std::size_t close = MatchClose(toks, i + 1);
    if (close >= toks.size()) continue;
    const std::size_t body = FindBodyBrace(toks, close);
    if (body >= toks.size()) {
      continue;
    }
    FnDef def;
    def.name = toks[i].text;
    def.file = &file;
    def.line = toks[i].line;
    def.body_begin = body;
    def.body_end = MatchClose(toks, body);
    if (i >= 3 && IsPunct(toks[i - 1], ":") && IsPunct(toks[i - 2], ":") &&
        IsIdent(toks[i - 3])) {
      def.cls = toks[i - 3].text;  // out-of-line `Class::Fn`
    } else {
      def.cls = EnclosingClass(spans, i);
    }
    for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
      if (IsCallHead(toks, k)) def.callees.push_back(toks[k].text);
    }
    std::sort(def.callees.begin(), def.callees.end());
    def.callees.erase(std::unique(def.callees.begin(), def.callees.end()),
                      def.callees.end());
    defs.push_back(std::move(def));
    i = body;  // nested lambdas belong to this def; skip past the header
  }
}

// ---- atomics pass ----------------------------------------------------------

// Every name declared `std::atomic<...>` anywhere in the tree. Token shape:
// `atomic` '<' ... '>' then the declared name, possibly across trailing
// `>`/`[]`/`*`/`&` from an enclosing template (vector<atomic<int>> hits,
// unique_ptr<atomic<int>[]> state).
std::set<std::string, std::less<>> CollectAtomicNames(
    const FactsTable& table) {
  std::set<std::string, std::less<>> atomics;
  for (const TuFacts& file : table.Files()) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsIdent(toks[i]) || toks[i].text != "atomic") continue;
      if (!IsPunct(toks[i + 1], "<")) continue;
      std::size_t j = SkipAngles(toks, i + 1);
      while (j < toks.size() && toks[j].kind == TokKind::kPunct &&
             (toks[j].text == ">" || toks[j].text == "[" ||
              toks[j].text == "]" || toks[j].text == "*" ||
              toks[j].text == "&" || toks[j].text == ")")) {
        ++j;
      }
      if (j < toks.size() && IsIdent(toks[j])) atomics.insert(toks[j].text);
    }
  }
  return atomics;
}

// Base variable of the member call whose member name sits at `i`, walking
// `x.f`, `x->f`, and `arr[k].f` receivers.
std::string ReceiverBase(const std::vector<Token>& toks, std::size_t i) {
  std::size_t q;
  if (i >= 2 && IsPunct(toks[i - 1], ".")) {
    q = i - 2;
  } else if (i >= 3 && IsPunct(toks[i - 1], ">") &&
             IsPunct(toks[i - 2], "-")) {
    q = i - 3;
  } else {
    return {};
  }
  if (IsPunct(toks[q], "]")) {
    const std::size_t open = MatchOpen(toks, q);
    if (open == 0 || !IsIdent(toks[open - 1])) return {};
    return toks[open - 1].text;
  }
  if (IsIdent(toks[q])) return toks[q].text;
  return {};
}

bool AtomicOpName(std::string_view s) {
  static const std::set<std::string, std::less<>> kOps = {
      "load",      "store",     "exchange",  "wait",
      "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
      "fetch_xor", "compare_exchange_strong", "compare_exchange_weak"};
  return kOps.count(s) > 0;
}

// The memory_order_* identifiers named inside [begin, end).
std::set<std::string, std::less<>> OrdersIn(const std::vector<Token>& toks,
                                            std::size_t begin,
                                            std::size_t end) {
  std::set<std::string, std::less<>> orders;
  for (std::size_t j = begin; j < end && j < toks.size(); ++j) {
    if (IsIdent(toks[j]) && toks[j].text.rfind("memory_order", 0) == 0) {
      orders.insert(toks[j].text);
    }
  }
  return orders;
}

// Which side(s) of a publish/consume pair this op sits on.
struct OpSides {
  bool release = false;
  bool acquire = false;
};

OpSides ClassifySides(std::string_view op,
                      const std::set<std::string, std::less<>>& orders) {
  const bool rmw = op != "load" && op != "store" && op != "wait";
  const auto has = [&](const char* o) { return orders.count(o) > 0; };
  OpSides sides;
  if (orders.empty() || has("memory_order_seq_cst")) {
    // Implicit ops default to seq_cst; loads still only consume, stores
    // still only publish.
    sides.release = op != "load" && op != "wait";
    sides.acquire = op != "store";
    return sides;
  }
  if (has("memory_order_acq_rel")) sides.release = sides.acquire = rmw;
  if (has("memory_order_release")) sides.release = op != "load" && op != "wait";
  if (has("memory_order_acquire")) sides.acquire = op != "store";
  return sides;
}

struct PairSite {
  const TuFacts* file = nullptr;
  int line = 0;
  std::string what;  // "name.store(memory_order_release)"
};

struct PairInfo {
  bool has_release = false;
  bool has_acquire = false;
  PairSite first_release;
  PairSite first_acquire;
};

// Hot-path regions of one file as (begin_line, end_line) pairs; unmatched
// markers are the hot-path pass's problem, not ours.
std::vector<std::pair<int, int>> HotRegions(const TuFacts& file) {
  std::vector<std::pair<int, int>> regions;
  int open_line = -1;
  for (const auto& [line, is_begin] : file.hot_markers) {
    if (is_begin) {
      open_line = line;
    } else if (open_line >= 0) {
      regions.emplace_back(open_line, line);
      open_line = -1;
    }
  }
  return regions;
}

bool InHotRegion(const std::vector<std::pair<int, int>>& regions, int line) {
  return std::any_of(regions.begin(), regions.end(), [&](const auto& r) {
    return line > r.first && line < r.second;
  });
}

const char kOrderAdvice[] =
    "; name the order explicitly — relaxed for a plain counter, "
    "release/acquire for a publish/consume pair";

void CheckFileAtomicOps(const TuFacts& file,
                        const std::set<std::string, std::less<>>& atomics,
                        std::map<std::string, PairInfo>& pairs,
                        std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  const std::vector<std::pair<int, int>> hot = HotRegions(file);
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!IsCallHead(toks, i) || !AtomicOpName(toks[i].text)) continue;
    const std::string base = ReceiverBase(toks, i);
    if (base.empty() || atomics.count(base) == 0) continue;
    const std::string& op = toks[i].text;
    const std::size_t close = MatchClose(toks, i + 1);
    const std::set<std::string, std::less<>> orders =
        OrdersIn(toks, i + 2, close);
    if (orders.empty()) {
      Emit(file, toks[i].line, "atomic-order", Severity::kError,
           "atomic operation '" + base + "." + op +
               "(...)' relies on the implicit seq_cst memory order" +
               kOrderAdvice,
           out);
    } else if (orders.count("memory_order_seq_cst") > 0 &&
               InHotRegion(hot, toks[i].line)) {
      Emit(file, toks[i].line, "atomic-order", Severity::kWarning,
           "'" + base + "." + op +
               "(memory_order_seq_cst)' pays for a full fence inside a "
               "hot-path region; acquire/release (or relaxed) is almost "
               "always what the protocol needs",
           out);
    }
    const OpSides sides = ClassifySides(op, orders);
    PairInfo& info = pairs[base];
    const std::string order_note =
        orders.empty() ? std::string("implicit seq_cst")
                       : *orders.begin();
    if (sides.release && !info.has_release) {
      info.has_release = true;
      info.first_release = {&file, toks[i].line,
                            base + "." + op + "(" + order_note + ")"};
    }
    if (sides.acquire && !info.has_acquire) {
      info.has_acquire = true;
      info.first_acquire = {&file, toks[i].line,
                            base + "." + op + "(" + order_note + ")"};
    }
  }
}

void CheckPairing(const std::map<std::string, PairInfo>& pairs,
                  std::vector<Finding>& out) {
  for (const auto& [name, info] : pairs) {
    if (info.has_release && !info.has_acquire) {
      Emit(*info.first_release.file, info.first_release.line, "atomic-pair",
           Severity::kError,
           "release-side write to atomic '" + name +
               "' has no acquire-side load anywhere in the scanned tree "
               "[flow: " +
               info.first_release.what +
               " -> (no consumer)]; the publish fences nothing — add the "
               "acquire load or downgrade the store to relaxed",
           out);
    }
    if (info.has_acquire && !info.has_release) {
      Emit(*info.first_acquire.file, info.first_acquire.line, "atomic-pair",
           Severity::kError,
           "acquire-side load of atomic '" + name +
               "' has no release-side write anywhere in the scanned tree "
               "[flow: (no publisher) -> " +
               info.first_acquire.what +
               "]; nothing publishes what this consumes — add the release "
               "store or downgrade the load to relaxed",
           out);
    }
  }
}

// ---- relaxed-guard ---------------------------------------------------------

bool PlainAssign(const std::vector<Token>& toks, std::size_t k) {
  if (!IsPunct(toks[k], "=")) return false;
  if (k + 1 < toks.size() && IsPunct(toks[k + 1], "=")) return false;
  if (k == 0) return true;
  const Token& prev = toks[k - 1];
  return !(IsPunct(prev, "=") || IsPunct(prev, "<") || IsPunct(prev, ">") ||
           IsPunct(prev, "!"));
}

// Strength of the atomic loads inside [begin, end): relaxed evidence (with
// its flow chain) and acquire/seq_cst evidence.
struct LoadEvidence {
  std::string relaxed_chain;
  bool strong = false;
};

void ScanLoads(const std::vector<Token>& toks, std::size_t begin,
               std::size_t end,
               const std::set<std::string, std::less<>>& atomics,
               LoadEvidence* ev) {
  for (std::size_t j = begin; j < end && j + 1 < toks.size(); ++j) {
    if (!IsCallHead(toks, j) || !AtomicOpName(toks[j].text)) continue;
    const std::string base = ReceiverBase(toks, j);
    if (base.empty() || atomics.count(base) == 0) continue;
    const std::set<std::string, std::less<>> orders =
        OrdersIn(toks, j + 2, MatchClose(toks, j + 1));
    if (orders.count("memory_order_acquire") > 0 ||
        orders.count("memory_order_acq_rel") > 0 ||
        orders.count("memory_order_seq_cst") > 0 || orders.empty()) {
      ev->strong = true;
    } else if (orders.count("memory_order_relaxed") > 0 &&
               ev->relaxed_chain.empty()) {
      ev->relaxed_chain =
          base + "." + toks[j].text + "(memory_order_relaxed)";
    }
  }
}

// A guard condition that mixes a relaxed atomic load with no acquire
// evidence must not gate reads of non-atomic shared state — the flag
// arrives before the data it advertises. The heuristic for "shared state"
// is the project's member-naming convention (trailing underscore), minus
// anything that is itself atomic.
void CheckFileRelaxedGuard(const TuFacts& file,
                           const std::set<std::string, std::less<>>& atomics,
                           std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  // Locals assigned from a relaxed load carry the weakness into later
  // conditions (`auto h = head_.load(relaxed); if (h == t) ...`).
  std::map<std::string, std::string, std::less<>> relaxed_locals;
  std::set<std::string, std::less<>> strong_locals;
  for (std::size_t k = 1; k + 1 < toks.size(); ++k) {
    if (!PlainAssign(toks, k) || !IsIdent(toks[k - 1])) continue;
    std::size_t e = k + 1;
    int depth = 0;
    for (; e < toks.size(); ++e) {
      const Token& t = toks[e];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      else if (t.text == ")" || t.text == "]" || t.text == "}") {
        if (--depth < 0) break;
      } else if (depth == 0 && (t.text == ";" || t.text == ",")) {
        break;
      }
    }
    LoadEvidence ev;
    ScanLoads(toks, k + 1, e, atomics, &ev);
    if (ev.strong) strong_locals.insert(toks[k - 1].text);
    else if (!ev.relaxed_chain.empty())
      relaxed_locals.emplace(toks[k - 1].text,
                             ev.relaxed_chain + " -> " + toks[k - 1].text);
  }
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) ||
        (toks[i].text != "if" && toks[i].text != "while")) {
      continue;
    }
    if (!IsPunct(toks[i + 1], "(")) continue;
    const std::size_t close = MatchClose(toks, i + 1);
    LoadEvidence ev;
    ScanLoads(toks, i + 2, close, atomics, &ev);
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!IsIdent(toks[j]) || IsMemberName(toks, j)) continue;
      if (strong_locals.count(toks[j].text) > 0) ev.strong = true;
      const auto it = relaxed_locals.find(toks[j].text);
      if (it != relaxed_locals.end() && ev.relaxed_chain.empty()) {
        ev.relaxed_chain = it->second;
      }
    }
    if (ev.strong || ev.relaxed_chain.empty()) continue;
    // Guarded statement or block.
    std::size_t b = close + 1;
    std::size_t b_end;
    if (b < toks.size() && IsPunct(toks[b], "{")) {
      b_end = MatchClose(toks, b);
    } else {
      b_end = b;
      while (b_end < toks.size() && !IsPunct(toks[b_end], ";")) ++b_end;
    }
    for (std::size_t j = b; j < b_end && j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (!IsIdent(t) || t.text.empty() || t.text.back() != '_') continue;
      if (atomics.count(t.text) > 0) continue;
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], "(")) continue;
      Emit(file, toks[i].line, "atomic-guard", Severity::kError,
           "non-atomic shared state '" + t.text +
               "' is read under a relaxed-load guard [flow: " +
               ev.relaxed_chain + " -> guard -> " + t.text +
               "]; the flag can arrive before the data — upgrade the guard "
               "load to acquire (paired with the writer's release)",
           out);
      break;
    }
  }
}

// ---- thread-role pass ------------------------------------------------------

bool MatchesRolePattern(const FnDef& def, const std::string& pat) {
  const std::string target =
      pat.find("::") == std::string::npos ? def.name : QualName(def);
  if (!pat.empty() && pat.back() == '*') {
    const std::string_view prefix(pat.data(), pat.size() - 1);
    return target.size() >= prefix.size() &&
           target.compare(0, prefix.size(), prefix) == 0;
  }
  return target == pat;
}

struct OwnedField {
  std::string cls;   // "" = any class
  std::string role;  // owning role
};

// Role propagation with per-(def, role) predecessor links so findings can
// print the entry-to-write call chain.
struct RoleFacts {
  // roles[def_index] = set of role names; parent[(def, role)] = caller.
  std::vector<std::set<std::string>> roles;
  std::map<std::pair<std::size_t, std::string>, std::size_t> parent;
};

RoleFacts PropagateRoles(const std::vector<FnDef>& defs,
                         const ConcurrencySpec& spec) {
  RoleFacts facts;
  facts.roles.resize(defs.size());
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name;
  for (std::size_t d = 0; d < defs.size(); ++d) {
    by_name[defs[d].name].push_back(d);
  }
  std::vector<std::pair<std::size_t, std::string>> work;
  for (const auto& [role, patterns] : spec.roles) {
    for (std::size_t d = 0; d < defs.size(); ++d) {
      const bool entry =
          std::any_of(patterns.begin(), patterns.end(),
                      [&](const std::string& p) {
                        return MatchesRolePattern(defs[d], p);
                      });
      if (entry && facts.roles[d].insert(role).second) {
        work.emplace_back(d, role);
      }
    }
  }
  while (!work.empty()) {
    const auto [d, role] = work.back();
    work.pop_back();
    for (const std::string& callee : defs[d].callees) {
      const auto it = by_name.find(callee);
      if (it == by_name.end()) continue;
      for (std::size_t c : it->second) {
        if (c == d) continue;
        if (facts.roles[c].insert(role).second) {
          facts.parent.emplace(std::make_pair(c, role), d);
          work.emplace_back(c, role);
        }
      }
    }
  }
  return facts;
}

std::string RoleChain(const std::vector<FnDef>& defs, const RoleFacts& facts,
                      std::size_t d, const std::string& role) {
  std::vector<std::string> names{QualName(defs[d])};
  std::size_t cur = d;
  for (int hops = 0; hops < 12; ++hops) {
    const auto it = facts.parent.find(std::make_pair(cur, role));
    if (it == facts.parent.end()) break;
    cur = it->second;
    names.push_back(QualName(defs[cur]));
  }
  std::string chain;
  for (std::size_t i = names.size(); i-- > 0;) {
    if (!chain.empty()) chain += " -> ";
    chain += names[i];
  }
  return chain;
}

// Is the identifier at `w` written to? Plain/compound assignment, ++/--,
// subscripted assignment, or a mutating member call on it.
bool IsWriteAt(const std::vector<Token>& toks, std::size_t w) {
  static const std::set<std::string, std::less<>> kMutators = {
      "push_back", "emplace_back", "emplace", "insert",  "erase",
      "clear",     "resize",       "reserve", "assign",  "pop_back",
      "push",      "pop",          "store",   "exchange", "fetch_add",
      "fetch_sub"};
  std::size_t n = w + 1;
  if (n < toks.size() && IsPunct(toks[n], "[")) n = MatchClose(toks, n) + 1;
  if (n >= toks.size()) return false;
  if (PlainAssign(toks, n)) return true;
  // Compound assignment / increment (the lexer splits `+=` and `++`).
  if (n + 1 < toks.size() && toks[n].kind == TokKind::kPunct &&
      (toks[n].text == "+" || toks[n].text == "-" || toks[n].text == "*" ||
       toks[n].text == "/" || toks[n].text == "|" || toks[n].text == "&" ||
       toks[n].text == "^")) {
    if (IsPunct(toks[n + 1], "=")) return true;
    if (IsPunct(toks[n + 1], toks[n].text) &&
        (toks[n].text == "+" || toks[n].text == "-")) {
      return true;  // postfix ++/--
    }
  }
  if (w >= 2 && ((IsPunct(toks[w - 1], "+") && IsPunct(toks[w - 2], "+")) ||
                 (IsPunct(toks[w - 1], "-") && IsPunct(toks[w - 2], "-")))) {
    return true;  // prefix ++/--
  }
  if (n + 1 < toks.size() && IsPunct(toks[n], ".") && IsIdent(toks[n + 1]) &&
      kMutators.count(toks[n + 1].text) > 0 && n + 2 < toks.size() &&
      IsPunct(toks[n + 2], "(")) {
    return true;
  }
  if (n + 2 < toks.size() && IsPunct(toks[n], "-") &&
      IsPunct(toks[n + 1], ">") && IsIdent(toks[n + 2]) &&
      kMutators.count(toks[n + 2].text) > 0) {
    return true;
  }
  return false;
}

void RunThreadRole(const FactsTable& table, const ConcurrencySpec& spec,
                   std::vector<Finding>& out) {
  std::vector<FnDef> defs;
  for (const TuFacts& file : table.Files()) CollectDefs(file, defs);
  const RoleFacts facts = PropagateRoles(defs, spec);
  // Owned-field lookup by short name.
  std::map<std::string, std::vector<OwnedField>, std::less<>> owned;
  for (const auto& [pattern, role] : spec.owned) {
    const std::size_t sep = pattern.find("::");
    if (sep == std::string::npos) {
      owned[pattern].push_back({"", role});
    } else {
      owned[pattern.substr(sep + 2)].push_back(
          {pattern.substr(0, sep), role});
    }
  }
  const auto is_shared = [&](const std::string& name,
                             const std::string& cls) {
    return spec.shared.count(name) > 0 ||
           (!cls.empty() && spec.shared.count(cls + "::" + name) > 0);
  };
  for (std::size_t d = 0; d < defs.size(); ++d) {
    if (facts.roles[d].empty()) continue;
    const FnDef& def = defs[d];
    const std::vector<Token>& toks = def.file->tokens;
    for (std::size_t w = def.body_begin + 1; w < def.body_end; ++w) {
      if (!IsIdent(toks[w])) continue;
      const auto it = owned.find(toks[w].text);
      if (it == owned.end()) continue;
      // Implicit-this writes carry the def's class; `x.field` writes have
      // no receiver type at the token level, so a qualified owned pattern
      // matches them by name alone.
      const std::string write_cls = IsMemberName(toks, w) ? "" : def.cls;
      if (is_shared(toks[w].text, write_cls.empty() ? def.cls : write_cls)) {
        continue;
      }
      if (!IsWriteAt(toks, w)) continue;
      for (const OwnedField& field : it->second) {
        if (!field.cls.empty() && !write_cls.empty() &&
            field.cls != write_cls) {
          continue;
        }
        for (const std::string& role : facts.roles[d]) {
          if (role == field.role) continue;
          Emit(*def.file, toks[w].line, "thread-role", Severity::kError,
               "field '" + toks[w].text + "' is owned by role '" +
                   field.role + "' but written from role '" + role +
                   "' [flow: " + RoleChain(defs, facts, d, role) + " -> " +
                   toks[w].text +
                   "]; move the write to the owning thread, hand it over "
                   "through a fenced handshake, or declare the field shared "
                   "in tools/manic_lint/concurrency.txt",
               out);
        }
      }
    }
  }
}

// ---- lock-order pass -------------------------------------------------------

struct SyncDecl {
  std::string cls;  // enclosing class ("" = file/namespace scope)
  bool is_cv = false;
};

// Registry of runtime::Mutex / std::mutex and condition-variable
// declarations, keyed by variable name.
std::map<std::string, std::vector<SyncDecl>, std::less<>> CollectSyncDecls(
    const FactsTable& table) {
  std::map<std::string, std::vector<SyncDecl>, std::less<>> decls;
  for (const TuFacts& file : table.Files()) {
    const std::vector<Token>& toks = file.tokens;
    const std::vector<ClassSpan> spans = ScanClassSpans(toks);
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i])) continue;
      const std::string& t = toks[i].text;
      const bool is_mutex = t == "Mutex" || t == "mutex";
      const bool is_cv = t == "CondVar" || t == "condition_variable" ||
                         t == "condition_variable_any";
      if (!is_mutex && !is_cv) continue;
      std::size_t j = i + 1;
      while (j < toks.size() &&
             (IsPunct(toks[j], "&") || IsPunct(toks[j], "*"))) {
        ++j;
      }
      if (j >= toks.size() || !IsIdent(toks[j]) || j + 1 >= toks.size()) {
        continue;
      }
      const Token& after = toks[j + 1];
      if (!(IsPunct(after, ";") || IsPunct(after, "{") ||
            IsPunct(after, "=") || IsPunct(after, ",") ||
            IsPunct(after, ")") ||
            (IsIdent(after) && AnnotationMacro(after.text)))) {
        continue;
      }
      decls[toks[j].text].push_back({EnclosingClass(spans, i), is_cv});
    }
  }
  for (auto& [name, v] : decls) {
    std::sort(v.begin(), v.end(), [](const SyncDecl& a, const SyncDecl& b) {
      return std::tie(a.cls, a.is_cv) < std::tie(b.cls, b.is_cv);
    });
    v.erase(std::unique(v.begin(), v.end(),
                        [](const SyncDecl& a, const SyncDecl& b) {
                          return a.cls == b.cls && a.is_cv == b.is_cv;
                        }),
            v.end());
  }
  return decls;
}

// Lock identity: "Class::name" when the declaration is unambiguous or the
// enclosing class declares it; the bare name (one merged node) otherwise.
// Merging distinct same-named locks can only over-approximate edges.
std::string ResolveSync(
    const std::map<std::string, std::vector<SyncDecl>, std::less<>>& decls,
    const std::string& name, const std::string& cls) {
  const auto it = decls.find(name);
  if (it == decls.end()) return name;
  if (!cls.empty()) {
    for (const SyncDecl& d : it->second) {
      if (d.cls == cls) return cls + "::" + name;
    }
  }
  if (it->second.size() == 1 && !it->second[0].cls.empty()) {
    return it->second[0].cls + "::" + name;
  }
  return name;
}

struct Acquisition {
  std::string lock;
  int line = 0;
  std::size_t begin = 0;  // token index of the acquisition
  std::size_t end = 0;    // first index past the hold
};

// End of the block enclosing token `from`: the first '}' that closes a
// scope opened before `from`, capped at `limit`.
std::size_t EnclosingBlockEnd(const std::vector<Token>& toks,
                              std::size_t from, std::size_t limit) {
  int depth = 0;
  for (std::size_t j = from; j < limit && j < toks.size(); ++j) {
    if (IsPunct(toks[j], "{")) ++depth;
    if (IsPunct(toks[j], "}")) {
      if (depth == 0) return j;
      --depth;
    }
  }
  return limit;
}

std::vector<Acquisition> CollectAcquisitions(
    const FnDef& def,
    const std::map<std::string, std::vector<SyncDecl>, std::less<>>& decls) {
  std::vector<Acquisition> acqs;
  const std::vector<Token>& toks = def.file->tokens;
  static const std::set<std::string, std::less<>> kGuards = {
      "MutexLock", "lock_guard", "scoped_lock", "unique_lock"};
  for (std::size_t i = def.body_begin + 1; i + 3 < def.body_end; ++i) {
    if (!IsIdent(toks[i])) continue;
    if (kGuards.count(toks[i].text) > 0) {
      // `MutexLock lock(expr);` — held to the end of the enclosing block.
      std::size_t j = i + 1;
      if (IsPunct(toks[j], "<")) j = SkipAngles(toks, j);
      if (j + 1 >= def.body_end || !IsIdent(toks[j]) ||
          !IsPunct(toks[j + 1], "(")) {
        continue;
      }
      const std::size_t close = MatchClose(toks, j + 1);
      std::string target;
      for (std::size_t k = j + 2; k < close; ++k) {
        if (IsIdent(toks[k])) target = toks[k].text;
      }
      if (target.empty()) continue;
      acqs.push_back({ResolveSync(decls, target, def.cls), toks[i].line,
                      close, EnclosingBlockEnd(toks, close, def.body_end)});
      continue;
    }
    if ((toks[i].text == "Lock" || toks[i].text == "lock") &&
        IsCallHead(toks, i) && IsMemberName(toks, i)) {
      const std::string base = ReceiverBase(toks, i);
      if (base.empty() || decls.count(base) == 0) continue;
      const std::string id = ResolveSync(decls, base, def.cls);
      // Held until the matching Unlock/unlock on the same variable.
      std::size_t end = def.body_end;
      for (std::size_t k = i + 2; k < def.body_end; ++k) {
        if (IsIdent(toks[k]) &&
            (toks[k].text == "Unlock" || toks[k].text == "unlock") &&
            IsMemberName(toks, k) && ReceiverBase(toks, k) == base) {
          end = k;
          break;
        }
      }
      acqs.push_back({id, toks[i].line, MatchClose(toks, i + 1), end});
    }
  }
  return acqs;
}

struct LockEdge {
  const TuFacts* file = nullptr;
  int line = 0;
  std::string via;  // callee name for interprocedural edges, "" for direct
};

void RunLockOrder(const FactsTable& table, const ConcurrencySpec& /*spec*/,
                  std::vector<Finding>& out) {
  const auto decls = CollectSyncDecls(table);
  std::vector<FnDef> defs;
  for (const TuFacts& file : table.Files()) CollectDefs(file, defs);
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name;
  for (std::size_t d = 0; d < defs.size(); ++d) {
    by_name[defs[d].name].push_back(d);
  }
  std::vector<std::vector<Acquisition>> acqs(defs.size());
  for (std::size_t d = 0; d < defs.size(); ++d) {
    acqs[d] = CollectAcquisitions(defs[d], decls);
  }
  // May-acquire closure per def over the short-name call graph.
  std::vector<std::set<std::string>> closure(defs.size());
  for (std::size_t d = 0; d < defs.size(); ++d) {
    for (const Acquisition& a : acqs[d]) closure[d].insert(a.lock);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t d = 0; d < defs.size(); ++d) {
      for (const std::string& callee : defs[d].callees) {
        const auto it = by_name.find(callee);
        if (it == by_name.end()) continue;
        for (std::size_t c : it->second) {
          for (const std::string& lock : closure[c]) {
            if (closure[d].insert(lock).second) changed = true;
          }
        }
      }
    }
  }
  // Edges: B acquired (directly or through a call) while A is held.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const TuFacts* file, int line,
                            const std::string& via) {
    edges.emplace(std::make_pair(from, to), LockEdge{file, line, via});
  };
  for (std::size_t d = 0; d < defs.size(); ++d) {
    const std::vector<Token>& toks = defs[d].file->tokens;
    for (const Acquisition& a : acqs[d]) {
      for (const Acquisition& b : acqs[d]) {
        if (b.begin > a.begin && b.begin < a.end) {
          add_edge(a.lock, b.lock, defs[d].file, b.line, "");
        }
      }
      for (std::size_t k = a.begin + 1; k < a.end && k < toks.size(); ++k) {
        if (!IsCallHead(toks, k)) continue;
        const auto it = by_name.find(toks[k].text);
        if (it == by_name.end()) continue;
        for (std::size_t c : it->second) {
          for (const std::string& lock : closure[c]) {
            add_edge(a.lock, lock, defs[d].file, toks[k].line,
                     toks[k].text);
          }
        }
      }
    }
  }
  // Cycle detection: iterative DFS over the edge map; the first back edge
  // found (deterministic: edges is an ordered map) names the cycle.
  // Self-edges are excluded here — the dedicated re-acquisition diagnostic
  // below says more than "cycle of length one" would.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [e, info] : edges) {
    if (e.first != e.second) adj[e.first].push_back(e.second);
  }
  std::set<std::string> done;
  std::vector<std::string> reported;
  for (const auto& [start, unused_] : adj) {
    (void)unused_;
    if (done.count(start) > 0) continue;
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    std::vector<std::size_t> next{0};
    while (!path.empty()) {
      const std::string cur = path.back();
      std::size_t& idx = next.back();
      const auto ait = adj.find(cur);
      if (ait == adj.end() || idx >= ait->second.size()) {
        done.insert(cur);
        on_path.erase(cur);
        path.pop_back();
        next.pop_back();
        continue;
      }
      const std::string& to = ait->second[idx++];
      if (on_path.count(to) > 0) {
        // Cycle: path from `to` around to cur and back.
        std::string chain;
        bool in_cycle = false;
        const TuFacts* site_file = nullptr;
        int site_line = 0;
        for (std::size_t p = 0; p < path.size(); ++p) {
          if (path[p] == to) in_cycle = true;
          if (!in_cycle) continue;
          const std::string& from = path[p];
          const std::string& step =
              (p + 1 < path.size()) ? path[p + 1] : to;
          const auto eit = edges.find(std::make_pair(from, step));
          chain += from + " -> ";
          if (site_file == nullptr && eit != edges.end()) {
            site_file = eit->second.file;
            site_line = eit->second.line;
          }
        }
        chain += to;
        const std::string key = chain;
        if (site_file != nullptr &&
            std::find(reported.begin(), reported.end(), key) ==
                reported.end()) {
          reported.push_back(key);
          Emit(*site_file, site_line, "lock-order", Severity::kError,
               "potential deadlock: lock acquisition cycle [flow: " + chain +
                   "]; pick one global order for these mutexes and acquire "
                   "them in it on every path",
               out);
        }
        continue;
      }
      if (done.count(to) > 0) continue;
      path.push_back(to);
      on_path.insert(to);
      next.push_back(0);
    }
  }
  // Self-deadlock: an edge from a lock to itself (runtime::Mutex is not
  // recursive).
  for (const auto& [e, info] : edges) {
    if (e.first != e.second) continue;
    Emit(*info.file, info.line, "lock-order", Severity::kError,
         "mutex '" + e.first + "' is acquired while already held" +
             (info.via.empty() ? std::string()
                               : " (through a call to '" + info.via + "')") +
             "; runtime::Mutex does not support recursive locking",
         out);
  }
}

// ---- wait/notify pairing ---------------------------------------------------

void RunWaitNotify(const FactsTable& table,
                   const std::set<std::string, std::less<>>& atomics,
                   std::vector<Finding>& out) {
  const auto decls = CollectSyncDecls(table);
  const auto is_cv = [&](const std::string& name) {
    const auto it = decls.find(name);
    if (it == decls.end()) return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [](const SyncDecl& d) { return d.is_cv; });
  };
  struct WaitInfo {
    bool waited = false;
    bool notified = false;
    PairSite first_wait;
  };
  std::map<std::string, WaitInfo> info;  // by variable short name
  for (const TuFacts& file : table.Files()) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      if (!IsCallHead(toks, i) || !IsMemberName(toks, i)) continue;
      const std::string& op = toks[i].text;
      const bool waitish =
          op == "wait" || op == "wait_for" || op == "wait_until";
      const bool notifyish = op == "notify_one" || op == "notify_all";
      if (!waitish && !notifyish) continue;
      const std::string base = ReceiverBase(toks, i);
      if (base.empty()) continue;
      if (atomics.count(base) == 0 && !is_cv(base)) continue;
      WaitInfo& w = info[base];
      if (notifyish) {
        w.notified = true;
      } else if (!w.waited) {
        w.waited = true;
        w.first_wait = {&file, toks[i].line, base + "." + op + "(...)"};
      }
    }
  }
  for (const auto& [name, w] : info) {
    if (!w.waited || w.notified) continue;
    Emit(*w.first_wait.file, w.first_wait.line, "wait-notify",
         Severity::kError,
         "'" + name +
             "' is waited on but never notified anywhere in the scanned "
             "tree [flow: " +
             w.first_wait.what +
             " -> (no notify)]; the waiter can sleep forever — add the "
             "notify_one/notify_all on the producing side",
         out);
  }
}

}  // namespace

ConcurrencySpec ParseConcurrencySpec(std::string_view text,
                                     std::string* error) {
  ConcurrencySpec spec;
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error =
          "concurrency spec line " + std::to_string(lineno) + ": " + what;
    }
    return ConcurrencySpec{};
  };
  const auto strip_commas = [](std::string s) {
    while (!s.empty() && s.back() == ',') s.pop_back();
    while (!s.empty() && s.front() == ',') s.erase(s.begin());
    return s;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;
    if (word == "role") {
      std::string name, eq, pat;
      if (!(fields >> name >> eq) || eq != "=") {
        return fail("expected `role <name> = <pattern>...`");
      }
      std::vector<std::string>& pats = spec.roles[name];
      while (fields >> pat) {
        pat = strip_commas(pat);
        if (!pat.empty()) pats.push_back(pat);
      }
      if (pats.empty()) {
        return fail("role '" + name + "' declares no entry points");
      }
    } else if (word == "owned-by") {
      std::string role, field;
      if (!(fields >> role)) return fail("owned-by needs a role name");
      int count = 0;
      while (fields >> field) {
        field = strip_commas(field);
        if (field.empty()) continue;
        spec.owned[field] = role;
        ++count;
      }
      if (count == 0) {
        return fail("owned-by '" + role + "' lists no fields");
      }
    } else if (word == "shared") {
      std::string field;
      int count = 0;
      while (fields >> field) {
        field = strip_commas(field);
        if (field.empty()) continue;
        spec.shared.insert(field);
        ++count;
      }
      if (count == 0) return fail("shared lists no fields");
    } else {
      return fail("unrecognized directive '" + word + "'");
    }
  }
  for (const auto& [field, role] : spec.owned) {
    if (spec.roles.count(role) == 0) {
      lineno = 0;
      return fail("owned-by role '" + role + "' (field '" + field +
                  "') is never declared with a `role` line");
    }
  }
  spec.loaded = !spec.roles.empty();
  if (!spec.loaded && error != nullptr && error->empty()) {
    *error = "concurrency spec declares no roles";
  }
  return spec;
}

ConcurrencySpec LoadConcurrencySpec(const std::string& path,
                                    std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot read concurrency spec '" + path + "'";
    }
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseConcurrencySpec(buf.str(), error);
}

void RunAtomicsPass(const FactsTable& table, const ConcurrencySpec& spec,
                    std::vector<Finding>& out) {
  if (!spec.loaded) return;
  const std::set<std::string, std::less<>> atomics =
      CollectAtomicNames(table);
  std::vector<Finding> found;
  std::map<std::string, PairInfo> pairs;
  for (const TuFacts& file : table.Files()) {
    CheckFileAtomicOps(file, atomics, pairs, found);
    CheckFileRelaxedGuard(file, atomics, found);
  }
  CheckPairing(pairs, found);
  SortUnique(found, out);
}

void RunThreadRolePass(const FactsTable& table, const ConcurrencySpec& spec,
                       std::vector<Finding>& out) {
  if (!spec.loaded) return;
  std::vector<Finding> found;
  RunThreadRole(table, spec, found);
  SortUnique(found, out);
}

void RunLockOrderPass(const FactsTable& table, const ConcurrencySpec& spec,
                      std::vector<Finding>& out) {
  if (!spec.loaded) return;
  std::vector<Finding> found;
  RunLockOrder(table, spec, found);
  RunWaitNotify(table, CollectAtomicNames(table), found);
  SortUnique(found, out);
}

}  // namespace manic::lint
