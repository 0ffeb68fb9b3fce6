#include "querygen.h"

#include <cctype>
#include <set>

namespace perfbench {

namespace {

// Frequent WSJ-profile tags, so most fresh structures match something.
constexpr const char* kTags[] = {
    "S",    "NP",  "VP",   "PP",  "NN",   "IN",  "NNP",  "DT",  "JJ",
    "NNS",  "VB",  "VBD",  "VBZ", "ADJP", "ADVP", "SBAR", "PRP", "RB",
    "CD",   "TO",  "MD",   "VBN", "VBG",  "CC",  "QP",   "WHNP", "NP-SBJ",
};
constexpr size_t kTagCount = sizeof(kTags) / sizeof(kTags[0]);

// Templates over tags A, B, C: child, descendant, the four horizontal
// axes, parent, predicates (positive, negated, disjunctive), scoping with
// edge alignment.
constexpr const char* kTemplates[] = {
    "//A/B",          "//A//B",          "//A->B",        "//A-->B",
    "//A=>B",         "//A==>B",         "//A\\B",        "//A[/B]",
    "//A[not(//B)]",  "//A{/B$}",        "//A{//^B}",     "//A/B/C",
    "//A[//B]/C",     "//A[/B=>C]",      "//A[/B or /C]", "//A{/B-->C}",
    "//A/B[not(/C)]", "//A[->B]",        "//A<-B",        "//A/B->C",
};
constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);

std::string Instantiate(const char* tmpl, const char* a, const char* b,
                        const char* c) {
  std::string out;
  for (const char* p = tmpl; *p != '\0'; ++p) {
    if (*p == 'A') {
      out += a;
    } else if (*p == 'B') {
      out += b;
    } else if (*p == 'C') {
      out += c;
    } else {
      out += *p;
    }
  }
  return out;
}

/// Length of the tag token starting at `i` (the LPath tag rule: a '-'
/// belongs to the tag unless "->" or "-->" starts there).
size_t TagLength(const std::string& q, size_t i) {
  size_t j = i;
  while (j < q.size()) {
    const char c = q[j];
    if (c == '-') {
      if (j + 1 < q.size() && q[j + 1] == '>') break;
      if (j + 2 < q.size() && q[j + 1] == '-' && q[j + 2] == '>') break;
    } else if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      break;
    }
    ++j;
  }
  return j - i;
}

void RespellOnce(const std::string& query, std::mt19937_64& rng,
                 std::string* out, bool* changed) {
  size_t i = 0;
  while (i < query.size()) {
    const char c = query[i];
    const bool tag_start =
        std::isupper(static_cast<unsigned char>(c)) &&
        (i == 0 || !std::isalnum(static_cast<unsigned char>(query[i - 1])));
    if (tag_start) {
      const size_t len = TagLength(query, i);
      const bool quote = rng() % 2 == 0;
      if (quote) *out += '\'';
      out->append(query, i, len);
      if (quote) *out += '\'';
      *changed |= quote;
      i += len;
      continue;
    }
    // Whitespace is insignificant before a bracket or a step's '/', and
    // after an opening bracket.
    const bool gap_before =
        i > 0 && (c == '[' || c == ']' || c == '{' || c == '}' ||
                  (c == '/' && query[i - 1] != '/'));
    if (gap_before && rng() % 2 == 0) {
      *out += ' ';
      *changed = true;
    }
    *out += c;
    if ((c == '[' || c == '{') && rng() % 2 == 0) {
      *out += ' ';
      *changed = true;
    }
    ++i;
  }
}

}  // namespace

std::vector<std::string> FreshStructures(size_t count, std::mt19937_64& rng) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  out.reserve(count);
  while (out.size() < count) {
    const char* t = kTemplates[rng() % kTemplateCount];
    const char* a = kTags[rng() % kTagCount];
    const char* b = kTags[rng() % kTagCount];
    const char* c = kTags[rng() % kTagCount];
    std::string q = Instantiate(t, a, b, c);
    if (seen.insert(q).second) out.push_back(std::move(q));
  }
  return out;
}

std::string Respell(const std::string& query, std::mt19937_64& rng) {
  std::string out;
  bool changed = false;
  // Every query has a tag or a bracket to vary, so this terminates.
  while (!changed) {
    out.clear();
    RespellOnce(query, rng, &out, &changed);
  }
  return out;
}

}  // namespace perfbench
