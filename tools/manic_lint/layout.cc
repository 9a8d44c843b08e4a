#include "layout.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>

#include "concurrency.h"
#include "lexer.h"
#include "rules.h"

namespace manic::lint {
namespace {

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

bool ControlWord(std::string_view s) {
  static const std::set<std::string, std::less<>> kWords = {
      "alignas",  "alignof",  "case",      "catch",    "co_await",
      "co_return", "co_yield", "constexpr", "decltype", "defined",
      "delete",   "for",      "if",        "new",      "noexcept",
      "requires", "return",   "sizeof",    "static_assert",
      "switch",   "throw",    "typeid",    "using",    "while"};
  return kWords.count(s) > 0;
}

// `ident(` or `ident<...>(`: explicit template arguments are part of the
// call head, so `make_unique<Item>(...)` is still a call to make_unique.
// A lone `<` that never closes before `;`/`{` is a comparison, not a
// template argument list.
bool IsCallHeadMaybeTemplated(const std::vector<Token>& toks, std::size_t i) {
  if (!IsIdent(toks[i]) || ControlWord(toks[i].text)) return false;
  std::size_t j = i + 1;
  if (j < toks.size() && IsPunct(toks[j], "<")) {
    int depth = 0;
    while (j < toks.size()) {
      if (toks[j].kind == TokKind::kPunct) {
        const std::string& p = toks[j].text;
        if (p == "<") {
          ++depth;
        } else if (p == ">") {
          if (--depth == 0) {
            ++j;
            break;
          }
        } else if (p == ";" || p == "{" || p == "}") {
          return false;
        }
      }
      ++j;
    }
    if (depth != 0) return false;
  }
  return j < toks.size() && IsPunct(toks[j], "(");
}

// toks[i] is the member name of a `base.member` / `base->member` access.
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

// Every finding honors both its own rule name and the `layout` family name,
// so `// manic-lint: allow(layout: false-sharing)` silences it while
// leaving both names visible in the suppression audit.
void Emit(const TuFacts& file, int line, const char* rule, Severity severity,
          std::string message, std::vector<Finding>& out) {
  if (FactsTable::IsAllowed(file, line, rule)) return;
  if (FactsTable::IsAllowed(file, line, "layout")) return;
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

// ---- struct scanning -------------------------------------------------------

struct FieldDecl {
  std::string name;
  std::vector<std::string> outer;  // type idents outside template angles
  std::vector<std::string> args;   // type idents inside template angles
  bool is_atomic = false;
  bool is_indirect = false;  // pointer or reference: size 8, align 8
  bool parse_ok = true;      // false: bitfield / non-literal array bound
  long long array_count = 1;
  int alignas_bytes = 0;  // alignas(N) on the field, 0 = none
  int line = 0;
};

struct StructDecl {
  std::string name;
  std::string enclosing;  // enclosing class name ("" = top level)
  bool is_union = false;
  const TuFacts* file = nullptr;
  int line = 0;
  std::vector<FieldDecl> fields;
};

struct ClassSpan {
  std::string name;
  std::string enclosing;
  bool is_union = false;
  int line = 0;
  std::size_t begin = 0;  // '{'
  std::size_t end = 0;    // matching '}'
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
    std::size_t n = i + 1;
    // `struct alignas(64) Name` — the annotation sits between the keyword
    // and the name.
    if (n < toks.size() && IsIdent(toks[n]) && toks[n].text == "alignas" &&
        n + 1 < toks.size() && IsPunct(toks[n + 1], "(")) {
      n = MatchClose(toks, n + 1) + 1;
    }
    if (n >= toks.size() || !IsIdent(toks[n])) continue;  // anonymous
    const std::string& name = toks[n].text;
    std::size_t j = n + 1;
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
    spans.push_back({name, "", t.text == "union", toks[i].line, j,
                     MatchClose(toks, j)});
  }
  // Innermost spans come later after this sort, so the enclosing class of a
  // span is the last earlier span strictly containing it.
  std::sort(spans.begin(), spans.end(),
            [](const ClassSpan& a, const ClassSpan& b) {
              return std::tie(a.begin, b.end) < std::tie(b.begin, a.end);
            });
  for (std::size_t s = 0; s < spans.size(); ++s) {
    for (std::size_t p = 0; p < s; ++p) {
      if (spans[p].begin < spans[s].begin && spans[s].end < spans[p].end) {
        spans[s].enclosing = spans[p].name;
      }
    }
  }
  return spans;
}

bool TypeIntroducer(std::string_view s) {
  return s == "struct" || s == "class" || s == "enum" || s == "union";
}

bool SkippableMemberHead(std::string_view s) {
  return s == "friend" || s == "using" || s == "typedef" ||
         s == "static" || s == "template" || s == "static_assert" ||
         s == "operator" || s == "public" || s == "private" ||
         s == "protected" || s == "explicit" || s == "virtual";
}

// Parses the member statements of one class body into field declarations.
// Statements that are not instance fields (methods, nested types, friends,
// using-aliases, static members) are skipped; statements a token scanner
// cannot size (bitfields, non-literal array bounds) produce a field with
// parse_ok = false so budget checks can name them.
std::vector<FieldDecl> ParseFields(const std::vector<Token>& toks,
                                   std::size_t body_begin,
                                   std::size_t body_end) {
  std::vector<FieldDecl> fields;
  std::size_t i = body_begin + 1;
  while (i < body_end) {
    // Access specifiers.
    if (IsIdent(toks[i]) &&
        (toks[i].text == "public" || toks[i].text == "private" ||
         toks[i].text == "protected") &&
        i + 1 < body_end && IsPunct(toks[i + 1], ":")) {
      i += 2;
      continue;
    }
    if (IsPunct(toks[i], ";")) {
      ++i;
      continue;
    }
    // One statement: collect top-level tokens, skipping nested groups.
    const std::size_t stmt_begin = i;
    bool saw_parens_before_init = false;
    bool saw_body_brace = false;
    bool saw_operator = false;  // `X& operator=(...) = delete;` is a function
    std::size_t init_start = 0;  // 0 = none; token index of '=' or init '{'
    bool nested_type = IsIdent(toks[i]) && TypeIntroducer(toks[i].text);
    std::size_t j = i;
    while (j < body_end) {
      const Token& t = toks[j];
      if (IsIdent(t) && t.text == "operator") saw_operator = true;
      if (IsPunct(t, ";")) break;
      if (IsPunct(t, "<")) {
        const std::size_t after = SkipAngles(toks, j);
        if (after != j) {
          j = after;
          continue;
        }
      }
      if (IsPunct(t, "(")) {
        // alignas(N) parens are part of a field declaration, not a
        // function's parameter list.
        const bool alignas_group =
            j > body_begin && IsIdent(toks[j - 1]) &&
            toks[j - 1].text == "alignas";
        if (init_start == 0 && !alignas_group) saw_parens_before_init = true;
        j = MatchClose(toks, j) + 1;
        continue;
      }
      if (IsPunct(t, "[")) {
        j = MatchClose(toks, j) + 1;
        continue;
      }
      if (IsPunct(t, "=") && init_start == 0 &&
          !(j + 1 < body_end && IsPunct(toks[j + 1], "="))) {
        init_start = j;
        ++j;
        continue;
      }
      if (IsPunct(t, "{")) {
        if (init_start == 0 && !saw_parens_before_init && !nested_type) {
          init_start = j;  // brace default-init `int x{0};`
        }
        j = MatchClose(toks, j) + 1;
        if (saw_parens_before_init && init_start == 0) {
          // Function definition: body brace ends the statement, no ';'.
          saw_body_brace = true;
          break;
        }
        continue;
      }
      ++j;
    }
    const std::size_t stmt_end = j;  // ';' or past the body brace
    i = saw_body_brace ? stmt_end : stmt_end + 1;

    if (nested_type || saw_body_brace || saw_parens_before_init ||
        saw_operator) {
      continue;
    }
    if (stmt_end <= stmt_begin) continue;
    if (IsIdent(toks[stmt_begin]) && SkippableMemberHead(toks[stmt_begin].text))
      continue;

    // Split the statement into declarator chunks at top-level commas:
    // `std::int64_t a = 0, b = 0;` declares two fields of one type.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t chunk_begin = stmt_begin;
    for (std::size_t k = stmt_begin; k < stmt_end;) {
      const Token& t = toks[k];
      if (IsPunct(t, "<")) {
        const std::size_t after = SkipAngles(toks, k);
        if (after != k) {
          k = after;
          continue;
        }
      }
      if (IsPunct(t, "(") || IsPunct(t, "[") || IsPunct(t, "{")) {
        k = MatchClose(toks, k) + 1;
        continue;
      }
      if (IsPunct(t, ",")) {
        chunks.emplace_back(chunk_begin, k);
        chunk_begin = k + 1;
      }
      ++k;
    }
    chunks.emplace_back(chunk_begin, stmt_end);

    FieldDecl base;  // type information shared by every declarator
    base.line = toks[stmt_begin].line;
    bool usable = true;
    for (std::size_t c = 0; c < chunks.size() && usable; ++c) {
      const std::size_t cb = chunks[c].first;
      const std::size_t ce_full = chunks[c].second;
      // The declarator ends at its own initializer ('=' or a brace-init).
      std::size_t ce = ce_full;
      for (std::size_t k = cb; k < ce_full; ++k) {
        if (IsPunct(toks[k], "<")) {
          const std::size_t after = SkipAngles(toks, k);
          if (after != k) {
            k = after - 1;
            continue;
          }
        }
        if (IsPunct(toks[k], "(")) {
          k = MatchClose(toks, k);
          continue;
        }
        if (IsPunct(toks[k], "=") || IsPunct(toks[k], "{")) {
          ce = k;
          break;
        }
      }
      FieldDecl field = base;
      if (c > 0) field.line = toks[cb].line;
      // Walk the declarator: alignas, cv/mutable noise, type idents,
      // template arguments, pointer/reference markers, the declared name,
      // and an array suffix.
      std::vector<std::string> outer;
      bool bitfield = false;
      for (std::size_t k = cb; k < ce; ++k) {
        const Token& t = toks[k];
        if (IsIdent(t) && t.text == "alignas" && k + 1 < ce &&
            IsPunct(toks[k + 1], "(")) {
          const std::size_t close = MatchClose(toks, k + 1);
          for (std::size_t a = k + 2; a < close && a < ce; ++a) {
            if (toks[a].kind == TokKind::kNumber) {
              field.alignas_bytes = std::atoi(toks[a].text.c_str());
            }
          }
          k = close;
          continue;
        }
        if (IsPunct(t, "<")) {
          const std::size_t after = SkipAngles(toks, k);
          if (after != k) {
            for (std::size_t a = k + 1; a + 1 < after; ++a) {
              if (IsIdent(toks[a]) && !ControlWord(toks[a].text) &&
                  toks[a].text != "std" && toks[a].text != "const") {
                field.args.push_back(toks[a].text);
              }
            }
            k = after - 1;
            continue;
          }
        }
        if (IsPunct(t, "[")) {
          const std::size_t close = MatchClose(toks, k);
          long long count = -1;
          if (close == k + 2 && toks[k + 1].kind == TokKind::kNumber) {
            count = std::atoll(toks[k + 1].text.c_str());
          }
          if (count <= 0) {
            field.parse_ok = false;
          } else {
            field.array_count *= count;
          }
          k = close;
          continue;
        }
        if (IsPunct(t, "*") || IsPunct(t, "&")) {
          field.is_indirect = true;
          continue;
        }
        if (IsPunct(t, ":") &&
            !(k + 1 < ce && IsPunct(toks[k + 1], ":")) &&
            !(k > cb && IsPunct(toks[k - 1], ":"))) {
          bitfield = true;
          continue;
        }
        if (IsIdent(t) && t.text != "std" && t.text != "const" &&
            t.text != "volatile" && t.text != "mutable" &&
            t.text != "constexpr" && t.text != "inline") {
          outer.push_back(t.text);
        }
      }
      if (bitfield) field.parse_ok = false;
      if (c == 0) {
        if (outer.size() < 2) {  // need at least a type and a name
          usable = false;
          break;
        }
        field.name = outer.back();
        outer.pop_back();
        field.outer.clear();
        for (const std::string& id : outer) {
          if (id == "atomic") {
            field.is_atomic = true;
          } else {
            field.outer.push_back(id);
          }
        }
        if (field.outer.empty() && !field.is_atomic && field.args.empty()) {
          usable = false;
          break;
        }
        base = field;
        base.name.clear();
        base.array_count = 1;
        base.parse_ok = true;
      } else {
        if (outer.empty()) continue;  // stray comma, nothing declared
        field.name = outer.back();
      }
      fields.push_back(std::move(field));
    }
  }
  return fields;
}

std::vector<StructDecl> CollectStructs(const FactsTable& table) {
  std::vector<StructDecl> structs;
  for (const TuFacts& file : table.Files()) {
    const std::vector<Token>& toks = file.tokens;
    for (const ClassSpan& span : ScanClassSpans(toks)) {
      StructDecl decl;
      decl.name = span.name;
      decl.enclosing = span.enclosing;
      decl.is_union = span.is_union;
      decl.file = &file;
      decl.line = span.line;
      decl.fields = ParseFields(toks, span.begin, span.end);
      structs.push_back(std::move(decl));
    }
  }
  return structs;
}

// ---- the size model --------------------------------------------------------

using TypeModel = LayoutSpec::TypeModel;

// The declared fixed-size primitive model (LP64): this is a *contract*, not
// an ABI probe — the point is that budgets and wire pins are stated in bytes
// a reviewer can check by hand.
std::optional<TypeModel> BuiltinModel(
    const std::vector<std::string>& idents) {
  static const std::map<std::string, TypeModel, std::less<>> kFixed = {
      {"bool", {1, 1}},        {"int8_t", {1, 1}},    {"uint8_t", {1, 1}},
      {"char8_t", {1, 1}},     {"int16_t", {2, 2}},   {"uint16_t", {2, 2}},
      {"char16_t", {2, 2}},    {"int32_t", {4, 4}},   {"uint32_t", {4, 4}},
      {"char32_t", {4, 4}},    {"wchar_t", {4, 4}},   {"float", {4, 4}},
      {"int64_t", {8, 8}},     {"uint64_t", {8, 8}},  {"size_t", {8, 8}},
      {"ssize_t", {8, 8}},     {"ptrdiff_t", {8, 8}}, {"intptr_t", {8, 8}},
      {"uintptr_t", {8, 8}},   {"time_t", {8, 8}},    {"double", {8, 8}},
      {"nullptr_t", {8, 8}},
  };
  bool has_long = false, has_short = false, has_int = false,
       has_char = false, has_double = false, has_signed = false;
  for (const std::string& s : idents) {
    const auto it = kFixed.find(s);
    if (it != kFixed.end()) {
      if (s == "double" && has_long) return TypeModel{16, 16};
      if (s == "double") {
        has_double = true;
        continue;
      }
      return it->second;
    }
    if (s == "long") has_long = true;
    else if (s == "short") has_short = true;
    else if (s == "int") has_int = true;
    else if (s == "char") has_char = true;
    else if (s == "unsigned" || s == "signed") has_signed = true;
    else return std::nullopt;  // a non-builtin ident: not a builtin type
  }
  if (has_double) return has_long ? TypeModel{16, 16} : TypeModel{8, 8};
  if (has_long) return TypeModel{8, 8};
  if (has_short) return TypeModel{2, 2};
  if (has_char) return TypeModel{1, 1};
  if (has_int || has_signed) return TypeModel{4, 4};
  return std::nullopt;
}

long long RoundUp(long long value, long long align) {
  return align > 0 ? (value + align - 1) / align * align : value;
}

class SizeModel {
 public:
  SizeModel(const LayoutSpec& spec, const std::vector<StructDecl>& structs)
      : spec_(spec) {
    for (std::size_t s = 0; s < structs.size(); ++s) {
      // First definition of a name wins (files arrive in path order).
      structs_by_name_.emplace(structs[s].name, &structs[s]);
    }
  }

  void ScanFile(const TuFacts& file) {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsIdent(toks[i])) continue;
      if (toks[i].text == "enum") {
        std::size_t n = i + 1;
        if (n < toks.size() && IsIdent(toks[n]) &&
            (toks[n].text == "class" || toks[n].text == "struct")) {
          ++n;
        }
        if (n >= toks.size() || !IsIdent(toks[n])) continue;
        const std::string& name = toks[n].text;
        TypeModel model{4, 4};  // no enum-base: int
        std::size_t j = n + 1;
        if (j < toks.size() && IsPunct(toks[j], ":") &&
            !(j + 1 < toks.size() && IsPunct(toks[j + 1], ":"))) {
          std::vector<std::string> base;
          for (++j; j < toks.size() && !IsPunct(toks[j], "{") &&
                    !IsPunct(toks[j], ";");
               ++j) {
            if (IsIdent(toks[j]) && toks[j].text != "std") {
              base.push_back(toks[j].text);
            }
          }
          if (const auto m = BuiltinModel(base)) model = *m;
        }
        if (j < toks.size() && IsPunct(toks[j], "{")) {
          enums_.emplace(name, model);
        }
        continue;
      }
      if (toks[i].text == "using" && IsIdent(toks[i + 1]) &&
          IsPunct(toks[i + 2], "=")) {
        std::vector<std::string> rhs;
        for (std::size_t j = i + 3; j < toks.size() && !IsPunct(toks[j], ";");
             ++j) {
          if (IsPunct(toks[j], "<")) break;  // template alias: not a scalar
          if (IsIdent(toks[j]) && toks[j].text != "std") {
            rhs.push_back(toks[j].text);
          }
        }
        if (!rhs.empty()) aliases_.emplace(toks[i + 1].text, rhs);
      }
    }
  }

  // Size/alignment of a field under the declared model, or nullopt with
  // *unknown naming the unresolvable type.
  std::optional<TypeModel> FieldModel(const FieldDecl& field,
                                      std::string* unknown) {
    if (!field.parse_ok) {
      if (unknown != nullptr) *unknown = field.name + " (unparsed declarator)";
      return std::nullopt;
    }
    if (field.is_indirect) return TypeModel{8, 8};
    const auto model = ResolveField(field, 0);
    if (!model && unknown != nullptr) {
      std::string type;
      for (const std::string& s : field.outer) {
        if (!type.empty()) type += ' ';
        type += s;
      }
      if (!field.args.empty()) {
        type += '<';
        for (std::size_t a = 0; a < field.args.size(); ++a) {
          if (a != 0) type += ',';
          type += field.args[a];
        }
        type += '>';
      }
      *unknown = field.name + " (type '" + type + "')";
    }
    return model;
  }

  std::optional<TypeModel> StructModel(const StructDecl& decl, int depth);

 private:
  // A field under the fixed-size model: pointers/references are 8 bytes,
  // atomic<T> has T's layout, optional<T> is T plus one aligned flag byte,
  // other templates resolve by their head name (spec `type` lines cover the
  // std containers), plain names resolve through spec -> enum -> alias ->
  // scanned struct.
  std::optional<TypeModel> ResolveField(const FieldDecl& field, int depth) {
    if (depth > 8) return std::nullopt;
    if (field.is_indirect) return TypeModel{8, 8};
    if (field.is_atomic) return ResolveIdents(field.args, depth + 1);
    if (!field.args.empty()) {
      if (field.outer.empty()) return std::nullopt;
      const std::string& head = field.outer.back();
      if (head == "optional") {
        const auto inner = ResolveIdents(field.args, depth + 1);
        if (!inner) return std::nullopt;
        return TypeModel{inner->size + inner->align, inner->align};
      }
      if (head == "pair") {
        // pair<A,B> under this model: both members resolved, laid out in
        // order. Only single-ident members are representable here.
        if (field.args.size() == 2) {
          const auto a = ResolveIdents({field.args[0]}, depth + 1);
          const auto b = ResolveIdents({field.args[1]}, depth + 1);
          if (a && b) {
            const int align = std::max(a->align, b->align);
            const int size = static_cast<int>(RoundUp(
                RoundUp(a->size, b->align) + b->size, align));
            return TypeModel{size, align};
          }
        }
        return std::nullopt;
      }
      return ResolveName(head, depth + 1);
    }
    return ResolveIdents(field.outer, depth + 1);
  }

  std::optional<TypeModel> ResolveName(const std::string& name, int depth) {
    if (depth > 8) return std::nullopt;
    const auto spec_it = spec_.types.find(name);
    if (spec_it != spec_.types.end()) return spec_it->second;
    const auto enum_it = enums_.find(name);
    if (enum_it != enums_.end()) return enum_it->second;
    const auto alias_it = aliases_.find(name);
    if (alias_it != aliases_.end()) {
      return ResolveIdents(alias_it->second, depth + 1);
    }
    const auto struct_it = structs_by_name_.find(name);
    if (struct_it != structs_by_name_.end()) {
      return StructModel(*struct_it->second, depth + 1);
    }
    return std::nullopt;
  }

  std::optional<TypeModel> ResolveIdents(
      const std::vector<std::string>& idents, int depth) {
    if (depth > 8 || idents.empty()) return std::nullopt;
    if (const auto m = BuiltinModel(idents)) return m;
    // Qualified names resolve by their last component; the qualifier tokens
    // (namespaces, enclosing classes) ride along in the ident list.
    return ResolveName(idents.back(), depth);
  }

  const LayoutSpec& spec_;
  std::map<std::string, TypeModel, std::less<>> enums_;
  std::map<std::string, std::vector<std::string>, std::less<>> aliases_;
  std::map<std::string, const StructDecl*, std::less<>> structs_by_name_;
  std::map<std::string, std::optional<TypeModel>, std::less<>> struct_memo_;
};

struct ComputedLayout {
  bool sizeable = false;
  std::string unknown;  // first field the model cannot size
  long long size = 0;
  long long align = 1;
  long long optimal_size = 0;          // best achievable by reordering
  std::vector<long long> offsets;      // per field, declaration order
  std::vector<std::string> best_order; // field names, decreasing alignment
};

std::optional<TypeModel> SizeModel::StructModel(const StructDecl& decl,
                                                int depth) {
  if (depth > 8) return std::nullopt;
  const auto memo = struct_memo_.find(decl.name);
  if (memo != struct_memo_.end()) return memo->second;
  struct_memo_.emplace(decl.name, std::nullopt);  // cycle guard
  long long size = 0, align = 1;
  for (const FieldDecl& field : decl.fields) {
    std::optional<TypeModel> m = ResolveField(field, depth + 1);
    if (!m || !field.parse_ok) {
      struct_memo_[decl.name] = std::nullopt;
      return std::nullopt;
    }
    const long long falign =
        std::max<long long>(m->align, field.alignas_bytes);
    const long long fsize =
        static_cast<long long>(m->size) * field.array_count;
    align = std::max(align, falign);
    if (decl.is_union) {
      size = std::max(size, fsize);
    } else {
      size = RoundUp(size, falign) + fsize;
    }
  }
  if (decl.fields.empty()) size = 1;  // empty structs occupy one byte
  size = RoundUp(size, align);
  const TypeModel model{static_cast<int>(size), static_cast<int>(align)};
  struct_memo_[decl.name] = model;
  return model;
}

ComputedLayout ComputeLayout(const StructDecl& decl, SizeModel& model) {
  ComputedLayout out;
  struct Sized {
    std::string name;
    long long size = 0;
    long long align = 1;
  };
  std::vector<Sized> sized;
  for (const FieldDecl& field : decl.fields) {
    std::string unknown;
    const auto m = model.FieldModel(field, &unknown);
    if (!m) {
      out.unknown = unknown;
      return out;
    }
    sized.push_back({field.name,
                     static_cast<long long>(m->size) * field.array_count,
                     std::max<long long>(m->align, field.alignas_bytes)});
  }
  out.sizeable = true;
  long long cur = 0;
  for (const Sized& f : sized) {
    cur = RoundUp(cur, f.align);
    out.offsets.push_back(cur);
    out.align = std::max(out.align, f.align);
    cur = decl.is_union ? std::max(cur, f.size) : cur + f.size;
    if (decl.is_union) cur = std::max(cur, f.size);
  }
  if (sized.empty()) cur = 1;
  out.size = RoundUp(cur, out.align);
  // Best achievable: stable-sort by decreasing alignment (then decreasing
  // size), which packs every padding hole a reorder can remove.
  std::vector<Sized> best = sized;
  std::stable_sort(best.begin(), best.end(),
                   [](const Sized& a, const Sized& b) {
                     return std::tie(b.align, b.size) <
                            std::tie(a.align, a.size);
                   });
  long long opt = 0;
  for (const Sized& f : best) {
    opt = RoundUp(opt, f.align) + f.size;
    out.best_order.push_back(f.name);
  }
  if (best.empty()) opt = 1;
  out.optimal_size = decl.is_union ? out.size : RoundUp(opt, out.align);
  return out;
}

std::string QualifiedName(const StructDecl& decl) {
  return decl.enclosing.empty() ? decl.name
                                : decl.enclosing + "::" + decl.name;
}

// Matches a spec struct name ("Sample", "IngestShard::Msg") against a
// definition. An unqualified name matches only top-level structs, so
// `budget Point` pins stats::Point without also grabbing an unrelated
// nested Outer::Point; a qualified name must match the enclosing class.
bool SpecNameMatches(std::string_view spec_name, const StructDecl& decl) {
  const std::size_t sep = spec_name.rfind("::");
  if (sep == std::string_view::npos) {
    return spec_name == decl.name && decl.enclosing.empty();
  }
  return spec_name.substr(sep + 2) == decl.name &&
         spec_name.substr(0, sep) == decl.enclosing;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

// ---- layout pass -----------------------------------------------------------

void CheckBudgets(const std::vector<StructDecl>& structs, SizeModel& model,
                  const LayoutSpec& spec, std::vector<Finding>& out) {
  for (const auto& [name, budget] : spec.budgets) {
    bool found = false;
    for (const StructDecl& decl : structs) {
      if (!SpecNameMatches(name, decl)) continue;
      found = true;
      const ComputedLayout layout = ComputeLayout(decl, model);
      if (!layout.sizeable) {
        Emit(*decl.file, decl.line, "layout-budget", Severity::kError,
             "struct '" + QualifiedName(decl) + "' has a declared budget of " +
                 std::to_string(budget) + " bytes but field " +
                 layout.unknown +
                 " has no size model; add a `type <name> <size> <align>` "
                 "line to tools/manic_lint/layout.txt",
             out);
        continue;
      }
      if (layout.size > budget) {
        std::string chain;
        for (std::size_t f = 0; f < decl.fields.size(); ++f) {
          if (!chain.empty()) chain += " -> ";
          chain += decl.fields[f].name + "@" +
                   std::to_string(layout.offsets[f]);
        }
        std::string msg =
            "struct '" + QualifiedName(decl) + "' is " +
            std::to_string(layout.size) + " bytes under the declared model, "
            "over its " + std::to_string(budget) + "-byte budget [offsets: " +
            chain + "]";
        if (layout.optimal_size < layout.size) {
          msg += "; reordering as (" + JoinNames(layout.best_order) +
                 ") reaches " + std::to_string(layout.optimal_size) +
                 " bytes";
        } else {
          msg += "; no field order is smaller — shrink a field or raise the "
                 "budget deliberately";
        }
        msg += "; at scale-up element counts every byte here is "
               "megabytes of resident set";
        Emit(*decl.file, decl.line, "layout-budget", Severity::kError,
             std::move(msg), out);
      }
    }
    if (!found) {
      out.push_back(
          {"tools/manic_lint/layout.txt", 0, "layout-budget",
           Severity::kError,
           "budget names struct '" + name +
               "' but no definition was found in the scanned tree; fix the "
               "spec or restore the struct"});
    }
  }
}

void CheckPadding(const std::vector<StructDecl>& structs, SizeModel& model,
                  const LayoutSpec& spec, std::vector<Finding>& out) {
  for (const StructDecl& decl : structs) {
    if (decl.fields.size() < 2 || decl.is_union) continue;
    const ComputedLayout layout = ComputeLayout(decl, model);
    if (!layout.sizeable) continue;  // only fully modeled structs are judged
    const long long waste = layout.size - layout.optimal_size;
    if (waste < spec.pad_threshold) continue;
    Emit(*decl.file, decl.line, "layout-pad", Severity::kWarning,
         "struct '" + QualifiedName(decl) + "' wastes " +
             std::to_string(waste) + " byte(s) to reorderable padding (" +
             std::to_string(layout.size) + " -> " +
             std::to_string(layout.optimal_size) +
             " bytes); suggested field order: (" +
             JoinNames(layout.best_order) + ")",
         out);
  }
}

void CheckFalseSharing(const std::vector<StructDecl>& structs,
                       const LayoutSpec& spec,
                       const std::set<std::string, std::less<>>& multi_role,
                       std::vector<Finding>& out) {
  const auto group_of = [&](const StructDecl& decl,
                            const FieldDecl& field) -> int {
    const auto it = spec.same_line.find(decl.name + "::" + field.name);
    return it == spec.same_line.end() ? -1 : it->second;
  };
  for (const StructDecl& decl : structs) {
    if (multi_role.count(decl.name) == 0) continue;
    for (std::size_t f = 0; f < decl.fields.size(); ++f) {
      const FieldDecl& field = decl.fields[f];
      if (!field.is_atomic) continue;
      const int group = group_of(decl, field);
      std::vector<std::string> cohabitants;
      // Without alignas(64) the field can land on the tail of the previous
      // field's cache line; with or without it, the next field starts on
      // this line unless it is itself line-aligned.
      if (field.alignas_bytes < 64 && f > 0) {
        const FieldDecl& prev = decl.fields[f - 1];
        if (group < 0 || group_of(decl, prev) != group) {
          cohabitants.push_back(prev.name);
        }
      }
      if (f + 1 < decl.fields.size()) {
        const FieldDecl& next = decl.fields[f + 1];
        if (next.alignas_bytes < 64 &&
            (group < 0 || group_of(decl, next) != group)) {
          cohabitants.push_back(next.name);
        }
      }
      if (cohabitants.empty()) continue;
      Emit(*decl.file, field.line, "false-sharing", Severity::kError,
           "atomic field '" + decl.name + "::" + field.name +
               "' shares a 64-byte cache line with " +
               JoinNames(cohabitants) + " in a struct touched by more than "
               "one declared thread role; every write to a neighbor "
               "invalidates this line under the other thread — isolate it "
               "with alignas(64), or declare the cohabitation on a "
               "`same-line` line in tools/manic_lint/layout.txt",
           out);
    }
  }
}

// ---- alloc pass ------------------------------------------------------------

bool MatchesAxisPattern(const std::string& ident,
                        const std::vector<std::string>& patterns) {
  for (const std::string& pat : patterns) {
    if (!pat.empty() && pat.back() == '*') {
      const std::string_view prefix(pat.data(), pat.size() - 1);
      if (ident.size() >= prefix.size() &&
          ident.compare(0, prefix.size(), prefix) == 0) {
        return true;
      }
    } else if (ident == pat) {
      return true;
    }
  }
  return false;
}

// Receiver chain of the member call whose name sits at `i`: base identifier,
// number of member/subscript hops, and whether a subscript appears — enough
// to tell `out.push_back(x)` (amortized, fine) from
// `rows[i].cells.push_back(x)` (per-element growth of a nested container).
struct ReceiverChain {
  std::string base;
  int hops = 0;
  bool subscript = false;
};

ReceiverChain WalkReceiver(const std::vector<Token>& toks, std::size_t i) {
  ReceiverChain chain;
  std::size_t k = i;
  while (k > 0) {
    std::size_t q;
    if (IsPunct(toks[k - 1], ".")) {
      q = k - 2;
    } else if (k >= 2 && IsPunct(toks[k - 1], ">") &&
               IsPunct(toks[k - 2], "-")) {
      q = k - 3;
    } else {
      break;
    }
    ++chain.hops;
    if (q + 1 == 0 || q >= toks.size()) break;
    while (true) {
      if (IsPunct(toks[q], "]")) {
        chain.subscript = true;
        const std::size_t open = MatchOpen(toks, q);
        if (open == 0) return chain;
        q = open - 1;
        continue;
      }
      if (IsPunct(toks[q], ")")) {
        const std::size_t open = MatchOpen(toks, q);
        if (open == 0) return chain;
        q = open - 1;
        continue;
      }
      break;
    }
    if (q < toks.size() && IsIdent(toks[q])) {
      chain.base = toks[q].text;
      k = q;
      continue;
    }
    break;
  }
  return chain;
}

struct ScaleLoop {
  int line = 0;
  std::string axis;       // the matched collection identifier
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

std::vector<ScaleLoop> FindScaleLoops(const std::vector<Token>& toks,
                                      const LayoutSpec& spec) {
  std::vector<ScaleLoop> loops;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || toks[i].text != "for") continue;
    if (!IsPunct(toks[i + 1], "(")) continue;
    const std::size_t close = MatchClose(toks, i + 1);
    if (close >= toks.size()) continue;
    // Range-for: the axis is any scale identifier after the ':'; indexed
    // for: any scale identifier in the condition (`i < links_.size()`).
    std::string axis;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!IsIdent(toks[j])) continue;
      if (MatchesAxisPattern(toks[j].text, spec.scale_axes)) {
        axis = toks[j].text;
        break;
      }
    }
    if (axis.empty()) continue;
    ScaleLoop loop;
    loop.line = toks[i].line;
    loop.axis = axis;
    std::size_t b = close + 1;
    if (b < toks.size() && IsPunct(toks[b], "{")) {
      loop.body_begin = b;
      loop.body_end = MatchClose(toks, b);
    } else {
      loop.body_begin = b;
      std::size_t e = b;
      int depth = 0;
      while (e < toks.size()) {
        if (toks[e].kind == TokKind::kPunct) {
          const std::string& p = toks[e].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
          if (p == ";" && depth == 0) break;
        }
        ++e;
      }
      loop.body_end = e;
    }
    loops.push_back(loop);
  }
  return loops;
}

const std::set<std::string, std::less<>>& AllocCallees() {
  static const std::set<std::string, std::less<>> kCallees = {
      "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup"};
  return kCallees;
}

const std::set<std::string, std::less<>>& NodeGrowthOps() {
  static const std::set<std::string, std::less<>> kOps = {
      "insert", "emplace", "try_emplace"};
  return kOps;
}

const std::set<std::string, std::less<>>& TailGrowthOps() {
  static const std::set<std::string, std::less<>> kOps = {"push_back",
                                                          "emplace_back"};
  return kOps;
}

void CheckFileAllocs(const TuFacts& file, const LayoutSpec& spec,
                     std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (const ScaleLoop& loop : FindScaleLoops(toks, spec)) {
    const std::string flow =
        "[flow: for (... : " + loop.axis + ") at line " +
        std::to_string(loop.line) + " -> ";
    for (std::size_t j = loop.body_begin; j < loop.body_end; ++j) {
      const Token& t = toks[j];
      if (!IsIdent(t)) continue;
      if (t.text == "new" &&
          !(j > 0 && IsIdent(toks[j - 1]) && toks[j - 1].text == "operator")) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "per-element `new` inside a loop over scale axis '" + loop.axis +
                 "' " + flow + "new]; at ~1M elements this is a malloc per "
                 "element — allocate through a declared arena path "
                 "(tools/manic_lint/layout.txt `arena`) or hoist the "
                 "allocation out of the loop",
             out);
        continue;
      }
      if (!IsCallHeadMaybeTemplated(toks, j)) continue;
      if (AllocCallees().count(t.text) > 0 &&
          spec.arena.count(t.text) == 0) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "per-element heap allocation '" + t.text +
                 "(...)' inside a loop over scale axis '" + loop.axis + "' " +
                 flow + t.text + "(...)]; route it through a declared arena "
                 "path or hoist it out of the loop",
             out);
        continue;
      }
      if (!IsMemberName(toks, j)) continue;
      const ReceiverChain chain = WalkReceiver(toks, j);
      if (chain.base.empty() || spec.arena.count(chain.base) > 0) continue;
      if (NodeGrowthOps().count(t.text) > 0) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "node-based growth '" + chain.base + "." + t.text +
                 "(...)' inside a loop over scale axis '" + loop.axis + "' " +
                 flow + chain.base + "." + t.text + "(...)]; a map/set node "
                 "per element fragments the heap at scale — use a "
                 "pre-sized flat structure or a declared arena path",
             out);
        continue;
      }
      if (TailGrowthOps().count(t.text) > 0 &&
          (chain.hops >= 2 || chain.subscript)) {
        Emit(file, t.line, "alloc-scale", Severity::kError,
             "nested-container growth '" + chain.base + "..." + t.text +
                 "(...)' inside a loop over scale axis '" + loop.axis + "' " +
                 flow + chain.base + "..." + t.text + "(...)]; growing an "
                 "inner container per element reallocates per element — "
                 "reserve up front, flatten to struct-of-arrays, or declare "
                 "the receiver an arena path",
             out);
      }
    }
  }
}

// ---- wire-abi pass ---------------------------------------------------------

void CheckWireStruct(const LayoutSpec::WireStruct& wire,
                     const std::vector<StructDecl>& structs,
                     std::vector<Finding>& out) {
  // Spec self-check: the pinned groups must sum to the declared total, so
  // the spec cannot drift from itself.
  int sum = 0;
  for (const LayoutSpec::WireGroup& g : wire.groups) sum += g.bytes;
  if (sum != wire.total) {
    out.push_back(
        {"tools/manic_lint/layout.txt", 0, "wire-abi", Severity::kError,
         "wire spec for '" + wire.name + "' declares a " +
             std::to_string(wire.total) + "-byte record but its groups sum "
             "to " + std::to_string(sum) + " bytes; fix the spec"});
    return;
  }
  std::vector<std::string> pinned;
  for (const LayoutSpec::WireGroup& g : wire.groups) {
    pinned.insert(pinned.end(), g.fields.begin(), g.fields.end());
  }
  bool found = false;
  for (const StructDecl& decl : structs) {
    if (!SpecNameMatches(wire.name, decl)) continue;
    found = true;
    std::vector<std::string> actual;
    for (const FieldDecl& f : decl.fields) actual.push_back(f.name);
    if (actual == pinned) continue;
    // Name the sharpest divergence: an unpinned field is the classic
    // drive-by addition; otherwise a removal or reorder.
    std::string msg;
    int line = decl.line;
    const std::set<std::string, std::less<>> pinned_set(pinned.begin(),
                                                        pinned.end());
    for (std::size_t f = 0; f < actual.size(); ++f) {
      if (pinned_set.count(actual[f]) == 0) {
        msg = "field '" + actual[f] + "' of '" + QualifiedName(decl) +
              "' is not part of the pinned " + std::to_string(wire.total) +
              "-byte wire format; an unencoded field silently forks the "
              "wire/checkpoint/replay streams — encode it, bump the format "
              "version, and re-pin the layout in "
              "tools/manic_lint/layout.txt";
        line = decl.fields[f].line;
        break;
      }
    }
    if (msg.empty()) {
      const std::set<std::string, std::less<>> actual_set(actual.begin(),
                                                          actual.end());
      for (const std::string& p : pinned) {
        if (actual_set.count(p) == 0) {
          msg = "pinned wire field '" + p + "' is missing from '" +
                QualifiedName(decl) +
                "'; removing or renaming an encoded field breaks every "
                "recorded stream — restore it or re-pin the layout "
                "deliberately";
          break;
        }
      }
    }
    if (msg.empty()) {
      msg = "fields of '" + QualifiedName(decl) +
            "' are declared in a different order than the pinned wire "
            "layout (" + JoinNames(pinned) +
            "); declaration order documents encode order — restore it";
    }
    Emit(*decl.file, line, "wire-abi", Severity::kError, std::move(msg), out);
  }
  if (!found) {
    out.push_back(
        {"tools/manic_lint/layout.txt", 0, "wire-abi", Severity::kError,
         "wire spec pins struct '" + wire.name +
             "' but no definition was found in the scanned tree; fix the "
             "spec or restore the struct"});
  }
}

}  // namespace

// ---- spec parsing ----------------------------------------------------------

LayoutSpec ParseLayoutSpec(std::string_view text, std::string* error) {
  LayoutSpec spec;
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  int next_group = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "layout spec line " + std::to_string(lineno) + ": " + what;
    }
    return LayoutSpec{};
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;
    if (word == "type") {
      std::string name;
      int size = 0, align = 0;
      if (!(fields >> name >> size >> align) || size <= 0 || align <= 0) {
        return fail("expected `type <name> <size> <align>` with positive "
                    "sizes");
      }
      spec.types[name] = {size, align};
    } else if (word == "budget") {
      std::string name;
      int bytes = 0;
      if (!(fields >> name >> bytes) || bytes <= 0) {
        return fail("expected `budget <Struct> <max_bytes>`");
      }
      spec.budgets[name] = bytes;
    } else if (word == "pad-threshold") {
      int bytes = 0;
      if (!(fields >> bytes) || bytes <= 0) {
        return fail("expected `pad-threshold <bytes>`");
      }
      spec.pad_threshold = bytes;
    } else if (word == "same-line") {
      std::string field;
      int count = 0;
      const int group = next_group++;
      while (fields >> field) {
        if (field.find("::") == std::string::npos) {
          return fail("same-line fields must be Class::field qualified");
        }
        spec.same_line[field] = group;
        ++count;
      }
      if (count < 2) {
        return fail("same-line needs at least two fields to share a line");
      }
    } else if (word == "multi-thread") {
      std::string name;
      int count = 0;
      while (fields >> name) {
        spec.multi_thread.insert(name);
        ++count;
      }
      if (count == 0) return fail("multi-thread lists no structs");
    } else if (word == "scale-axis") {
      std::string pat;
      int count = 0;
      while (fields >> pat) {
        spec.scale_axes.push_back(pat);
        ++count;
      }
      if (count == 0) return fail("scale-axis lists no patterns");
    } else if (word == "arena") {
      std::string name;
      int count = 0;
      while (fields >> name) {
        spec.arena.insert(name);
        ++count;
      }
      if (count == 0) return fail("arena lists no identifiers");
    } else if (word == "wire") {
      LayoutSpec::WireStruct wire;
      if (!(fields >> wire.name >> wire.total) || wire.total <= 0) {
        return fail("expected `wire <Struct> <total_bytes> <field:bytes>...`");
      }
      std::string group;
      while (fields >> group) {
        const std::size_t colon = group.rfind(':');
        if (colon == std::string::npos || colon + 1 >= group.size()) {
          return fail("wire group '" + group + "' needs a :bytes suffix");
        }
        LayoutSpec::WireGroup g;
        g.bytes = std::atoi(group.c_str() + colon + 1);
        if (g.bytes <= 0) {
          return fail("wire group '" + group + "' has a non-positive size");
        }
        std::string name;
        for (std::size_t c = 0; c < colon; ++c) {
          if (group[c] == '+') {
            if (name.empty()) return fail("wire group '" + group +
                                          "' has an empty field name");
            g.fields.push_back(name);
            name.clear();
          } else {
            name.push_back(group[c]);
          }
        }
        if (name.empty()) {
          return fail("wire group '" + group + "' has an empty field name");
        }
        g.fields.push_back(name);
        wire.groups.push_back(std::move(g));
      }
      if (wire.groups.empty()) {
        return fail("wire '" + wire.name + "' pins no fields");
      }
      spec.wire.push_back(std::move(wire));
    } else {
      return fail("unrecognized directive '" + word + "'");
    }
  }
  spec.loaded = !spec.budgets.empty() || !spec.wire.empty() ||
                !spec.scale_axes.empty();
  if (!spec.loaded && error != nullptr && error->empty()) {
    *error = "layout spec declares no budgets, wire structs, or scale axes";
  }
  return spec;
}

LayoutSpec LoadLayoutSpec(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read layout spec '" + path + "'";
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseLayoutSpec(buf.str(), error);
}

// ---- pass drivers ----------------------------------------------------------

void RunLayoutPass(const FactsTable& table, const LayoutSpec& spec,
                   const ConcurrencySpec* concurrency,
                   std::vector<Finding>& out) {
  if (!spec.loaded) return;
  const std::vector<StructDecl> structs = CollectStructs(table);
  SizeModel model(spec, structs);
  for (const TuFacts& file : table.Files()) model.ScanFile(file);
  std::vector<Finding> found;
  CheckBudgets(structs, model, spec, found);
  CheckPadding(structs, model, spec, found);
  std::set<std::string, std::less<>> multi_role = spec.multi_thread;
  if (concurrency != nullptr && concurrency->loaded) {
    for (const std::string& cls : MultiRoleClasses(table, *concurrency)) {
      multi_role.insert(cls);
    }
  }
  CheckFalseSharing(structs, spec, multi_role, found);
  SortUnique(found, out);
}

void RunAllocPass(const FactsTable& table, const LayoutSpec& spec,
                  std::vector<Finding>& out) {
  if (!spec.loaded || spec.scale_axes.empty()) return;
  std::vector<Finding> found;
  for (const TuFacts& file : table.Files()) {
    CheckFileAllocs(file, spec, found);
  }
  SortUnique(found, out);
}

void RunWireAbiPass(const FactsTable& table, const LayoutSpec& spec,
                    std::vector<Finding>& out) {
  if (!spec.loaded) return;
  const std::vector<StructDecl> structs = CollectStructs(table);
  std::vector<Finding> found;
  for (const LayoutSpec::WireStruct& wire : spec.wire) {
    CheckWireStruct(wire, structs, found);
  }
  SortUnique(found, out);
}

}  // namespace manic::lint
