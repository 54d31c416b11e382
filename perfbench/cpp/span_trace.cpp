#include "span_trace.hpp"

#include <cstdio>
#include <fstream>

#include "obs/json_escape.hpp"

namespace perfbench {

double SpanTrace::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

double SpanTrace::steady_to_us(double steady_ms) const {
  const double epoch_ms =
      std::chrono::duration<double, std::milli>(epoch_.time_since_epoch())
          .count();
  return (steady_ms - epoch_ms) * 1e3;
}

int SpanTrace::begin(const std::string& name, std::uint64_t request,
                     int parent) {
  const double t = now_us();
  return add(name, request, parent, t, t);
}

void SpanTrace::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
}

int SpanTrace::add(const std::string& name, std::uint64_t request, int parent,
                   double start_us, double end_us) {
  spans_.push_back(Span{name, request, parent, start_us, end_us});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, std::vector<double>> SpanTrace::child_totals(
    const std::string& root) const {
  std::map<int, std::map<std::string, double>> per_root;
  std::vector<int> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == root) {
      roots.push_back(static_cast<int>(i));
      per_root[static_cast<int>(i)];
    }
  }
  std::map<std::string, bool> names;
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    auto it = per_root.find(s.parent);
    if (it == per_root.end()) continue;
    it->second[s.name] += s.dur_ms();
    names[s.name] = true;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, unused] : names) {
    std::vector<double>& v = out[name];
    for (int r : roots) {
      const auto& m = per_root[r];
      const auto f = m.find(name);
      v.push_back(f == m.end() ? 0.0 : f->second);
    }
  }
  return out;
}

std::vector<double> SpanTrace::descendant_totals(
    const std::string& root, const std::string& name) const {
  // Spans are appended after their parents, so one forward sweep resolves
  // each span's root ancestor.
  std::vector<int> root_of(spans_.size(), kNoParent);
  std::map<int, double> total;
  std::vector<int> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == root) {
      root_of[i] = static_cast<int>(i);
      roots.push_back(static_cast<int>(i));
      total[static_cast<int>(i)] = 0;
    } else if (s.parent != kNoParent) {
      root_of[i] = root_of[static_cast<std::size_t>(s.parent)];
    }
    if (s.name == name && root_of[i] != kNoParent &&
        root_of[i] != static_cast<int>(i)) {
      total[root_of[i]] += s.dur_ms();
    }
  }
  std::vector<double> out;
  for (int r : roots) out.push_back(total[r]);
  return out;
}

std::vector<double> SpanTrace::coverage(const std::string& root) const {
  std::map<int, double> covered;
  for (const Span& s : spans_) {
    if (s.parent != kNoParent &&
        spans_[static_cast<std::size_t>(s.parent)].name == root) {
      covered[s.parent] += s.dur_ms();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root) continue;
    const double wall = spans_[i].dur_ms();
    out.push_back(wall > 0 ? covered[static_cast<int>(i)] / wall : 0.0);
  }
  return out;
}

std::vector<double> SpanTrace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur_ms());
  }
  return out;
}

bool SpanTrace::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                  "\"args\": {\"request\": %llu, \"span\": %zu, "
                  "\"parent\": %d}}%s\n",
                  hgp::obs::json_escaped(s.name).c_str(),
                  s.parent == kNoParent ? "request" : "layer", s.start_us,
                  s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.request), i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
