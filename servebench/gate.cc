// Copyright 2026 The ConsensusDB Authors

#include "gate.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "io/request_protocol.h"

namespace servebench {
namespace {

bool IsDoubleField(const std::string& name) {
  return name == "expected" || name == "marginals" || name == "mean";
}

bool IsTraceField(const std::string& name) {
  return name.compare(0, 6, "trace_") == 0;
}

std::vector<std::string> SplitCsv(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t comma = value.find(',', start);
    out.push_back(value.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         std::max(kAbsTol, kRelTol * std::max(std::fabs(a), std::fabs(b)));
}

// Element-wise numeric comparison of two comma-separated double lists.
bool DoublesClose(const std::string& a, const std::string& b) {
  const std::vector<std::string> xs = SplitCsv(a);
  const std::vector<std::string> ys = SplitCsv(b);
  if (xs.size() != ys.size()) return false;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == ys[i]) continue;
    double x = 0.0;
    double y = 0.0;
    if (!ParseDouble(xs[i], &x) || !ParseDouble(ys[i], &y) || !Close(x, y)) {
      return false;
    }
  }
  return true;
}

std::vector<cpdb::RequestField> AnswerFields(const cpdb::ResponseLine& line) {
  std::vector<cpdb::RequestField> out;
  for (const cpdb::RequestField& f : line.fields) {
    if (!IsTraceField(f.name)) out.push_back(f);
  }
  return out;
}

// `line` with field `name` replaced by `value`.
std::string WithField(const std::string& line, const std::string& name,
                      const std::string& value) {
  cpdb::Result<cpdb::ResponseLine> parsed = cpdb::ParseResponseLine(line);
  std::vector<cpdb::RequestField> fields = parsed->fields;
  for (cpdb::RequestField& f : fields) {
    if (f.name == name) f.value = value;
  }
  return cpdb::FormatResponseLine(fields);
}

}  // namespace

std::string CompareResponses(const std::string& got,
                             const std::string& reference) {
  cpdb::Result<cpdb::ResponseLine> g = cpdb::ParseResponseLine(got);
  cpdb::Result<cpdb::ResponseLine> r = cpdb::ParseResponseLine(reference);
  if (!g.ok() || !g->ok) return "response is not an ok line: " + got;
  if (!r.ok() || !r->ok) return "reference is not an ok line: " + reference;
  const std::vector<cpdb::RequestField> gf = AnswerFields(*g);
  const std::vector<cpdb::RequestField> rf = AnswerFields(*r);
  if (gf.size() != rf.size()) return "field count differs";
  const std::string* g_expected = g->Find("expected");
  const std::string* r_expected = r->Find("expected");
  for (size_t i = 0; i < gf.size(); ++i) {
    const cpdb::RequestField& a = gf[i];
    const cpdb::RequestField& b = rf[i];
    if (a.name != b.name) return "field " + a.name + " vs " + b.name;
    if (a.value == b.value) continue;
    if (IsDoubleField(a.name) && DoublesClose(a.value, b.value)) continue;
    if (a.name == "keys" && g_expected != nullptr && r_expected != nullptr &&
        DoublesClose(*g_expected, *r_expected)) {
      continue;  // a different answer of tied expected distance
    }
    return a.name + "=" + a.value + " vs reference " + b.value;
  }
  return "";
}

std::string SelfTestGate(const std::string& reference) {
  cpdb::Result<cpdb::ResponseLine> r = cpdb::ParseResponseLine(reference);
  if (!r.ok() || r->Find("expected") == nullptr || r->Find("keys") == nullptr ||
      r->Find("k") == nullptr) {
    return "self-test needs an ok topk reference line";
  }
  double expected = 0.0;
  if (!ParseDouble(*r->Find("expected"), &expected) || expected == 0.0) {
    return "self-test needs a nonzero expected distance";
  }
  auto scaled = [&](double factor) {
    return cpdb::FormatRoundTripDouble(expected * factor);
  };
  const std::string other_keys = "999999";
  std::string traced = cpdb::FormatResponseLine(r->fields);
  traced.pop_back();  // the newline
  traced += "\ttrace_total_ns=5\n";
  struct Case {
    const char* what;
    std::string line;
    bool should_pass;
  };
  const std::vector<Case> cases = {
      {"identical", reference, true},
      {"expected drift 1e-12", WithField(reference, "expected", scaled(1 + 1e-12)),
       true},
      {"expected drift 1e-6", WithField(reference, "expected", scaled(1 + 1e-6)),
       false},
      {"keys changed, expected tied", WithField(reference, "keys", other_keys),
       true},
      {"keys changed, expected drifted",
       WithField(WithField(reference, "keys", other_keys), "expected",
                 scaled(1 + 1e-6)),
       false},
      {"exact field changed", WithField(reference, "k", "999"), false},
      {"trace fields ignored", traced, true},
      {"error line", "error\tline=1\tmsg=perturbed\n", false},
  };
  for (const Case& c : cases) {
    const bool passed = CompareResponses(c.line, reference).empty();
    if (passed != c.should_pass) {
      return std::string("gate self-test case '") + c.what + "' " +
             (passed ? "passed but must trip" : "tripped but must pass");
    }
  }
  // An error line fails even when the reference gave the same error.
  const std::string error = "error\tline=1\tmsg=not found\n";
  if (CompareResponses(error, error).empty()) {
    return "gate self-test case 'error line, same error in the reference' "
           "passed but must trip";
  }
  return "";
}

}  // namespace servebench
