#include "telemetry/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace wsmd::telemetry {

namespace {

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string fmt(double v, const char* spec = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// Human-ish magnitude formatting for tile values (1.23e+07 -> "12.3M").
std::string fmt_mag(double v) {
  const double a = std::abs(v);
  if (a >= 1e9) return fmt(v / 1e9, "%.3g") + "G";
  if (a >= 1e6) return fmt(v / 1e6, "%.3g") + "M";
  if (a >= 1e3) return fmt(v / 1e3, "%.3g") + "k";
  return fmt(v, "%.4g");
}

/// Inline SVG sparkline of one series: a filled area under a polyline,
/// scaled to the series' own [min, max]. Self-contained by construction —
/// coordinates and colors only, no references.
std::string sparkline(const std::vector<double>& values, int width = 280,
                      int height = 64) {
  std::ostringstream os;
  os << "<svg viewBox=\"0 0 " << width << " " << height
     << "\" width=\"" << width << "\" height=\"" << height
     << "\" role=\"img\">";
  if (values.size() < 2) {
    os << "<text x=\"8\" y=\"" << height / 2
       << "\" class=\"nodata\">not enough snapshots</text></svg>";
    return os.str();
  }
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo;
  const double pad = 6.0;
  std::ostringstream pts;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x =
        pad + (width - 2 * pad) * static_cast<double>(i) /
                  static_cast<double>(values.size() - 1);
    const double frac = span > 0.0 ? (values[i] - lo) / span : 0.5;
    const double y = height - pad - (height - 2 * pad) * frac;
    if (i > 0) pts << " ";
    pts << fmt(x, "%.1f") << "," << fmt(y, "%.1f");
  }
  os << "<polyline fill=\"none\" stroke=\"#3572b0\" stroke-width=\"1.5\" "
        "points=\""
     << pts.str() << "\"/>";
  os << "</svg>";
  return os.str();
}

/// One labeled sparkline card: title, min/last/max caption, plot.
std::string spark_card(const std::string& title,
                       const std::vector<double>& values) {
  std::ostringstream os;
  double lo = 0.0, hi = 0.0, last = 0.0;
  if (!values.empty()) {
    lo = *std::min_element(values.begin(), values.end());
    hi = *std::max_element(values.begin(), values.end());
    last = values.back();
  }
  os << "<div class=\"card\"><h3>" << html_escape(title) << "</h3>"
     << "<div class=\"caption\">last " << fmt_mag(last) << " · min "
     << fmt_mag(lo) << " · max " << fmt_mag(hi) << "</div>"
     << sparkline(values) << "</div>\n";
  return os.str();
}

/// Horizontal bar pair (busy solid, wait hatched-lighter) per shard.
std::string shard_bars(const std::vector<double>& busy,
                       const std::vector<double>& wait) {
  const int width = 420, row_h = 18, pad = 4;
  double hi = 0.0;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    hi = std::max(hi, busy[i] + (i < wait.size() ? wait[i] : 0.0));
  }
  if (hi <= 0.0) hi = 1.0;
  const int label_w = 64;
  const int h = static_cast<int>(busy.size()) * row_h + 2 * pad;
  std::ostringstream os;
  os << "<svg viewBox=\"0 0 " << width << " " << h << "\" width=\"" << width
     << "\" height=\"" << h << "\" role=\"img\">";
  for (std::size_t i = 0; i < busy.size(); ++i) {
    const double w_total = width - label_w - 2 * pad;
    const double bw = w_total * busy[i] / hi;
    const double ww =
        w_total * (i < wait.size() ? wait[i] : 0.0) / hi;
    const int y = pad + static_cast<int>(i) * row_h;
    os << "<text x=\"0\" y=\"" << y + 13
       << "\" class=\"axis\">shard" << i << "</text>"
       << "<rect x=\"" << label_w << "\" y=\"" << y + 3 << "\" width=\""
       << fmt(bw, "%.1f") << "\" height=\"" << row_h - 6
       << "\" fill=\"#3572b0\"/>"
       << "<rect x=\"" << fmt(label_w + bw, "%.1f") << "\" y=\"" << y + 3
       << "\" width=\"" << fmt(ww, "%.1f") << "\" height=\"" << row_h - 6
       << "\" fill=\"#c9d6e8\"/>";
  }
  os << "</svg>";
  return os.str();
}

/// 8-bin histogram of the per-snapshot imbalance ratio.
std::string imbalance_histogram(const std::vector<double>& values) {
  const int bins = 8, width = 280, height = 90, pad = 6;
  std::ostringstream os;
  os << "<svg viewBox=\"0 0 " << width << " " << height << "\" width=\""
     << width << "\" height=\"" << height << "\" role=\"img\">";
  if (values.empty()) {
    os << "<text x=\"8\" y=\"" << height / 2
       << "\" class=\"nodata\">no snapshots</text></svg>";
    return os.str();
  }
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  if (hi - lo < 1e-12) {
    lo -= 0.5;
    hi += 0.5;
  }
  std::vector<int> counts(bins, 0);
  for (double v : values) {
    int b = static_cast<int>((v - lo) / (hi - lo) * bins);
    b = std::clamp(b, 0, bins - 1);
    ++counts[static_cast<std::size_t>(b)];
  }
  const int peak = *std::max_element(counts.begin(), counts.end());
  const double bw = static_cast<double>(width - 2 * pad) / bins;
  for (int b = 0; b < bins; ++b) {
    const double frac =
        static_cast<double>(counts[static_cast<std::size_t>(b)]) / peak;
    const double bh = (height - 24 - pad) * frac;
    os << "<rect x=\"" << fmt(pad + b * bw + 1, "%.1f") << "\" y=\""
       << fmt(height - 18 - bh, "%.1f") << "\" width=\"" << fmt(bw - 2, "%.1f")
       << "\" height=\"" << fmt(bh, "%.1f") << "\" fill=\"#3572b0\"/>";
  }
  os << "<text x=\"" << pad << "\" y=\"" << height - 4
     << "\" class=\"axis\">" << fmt(lo, "%.3g") << "</text>"
     << "<text x=\"" << width - 40 << "\" y=\"" << height - 4
     << "\" class=\"axis\">" << fmt(hi, "%.3g") << "</text>";
  os << "</svg>";
  return os.str();
}

std::string summary_tile(const std::string& label, const std::string& value) {
  return "<div class=\"tile\"><div class=\"value\">" + html_escape(value) +
         "</div><div class=\"label\">" + html_escape(label) + "</div></div>\n";
}

}  // namespace

std::string render_dashboard_html(const DashboardInput& in) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n<title>wsmd · "
     << html_escape(in.title) << "</title>\n<style>\n"
     << "body { font: 14px/1.45 system-ui, sans-serif; margin: 24px;"
        " color: #1c2733; background: #fafbfc; }\n"
     << "h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }\n"
     << "h3 { font-size: 13px; margin: 0 0 2px; }\n"
     << ".tiles, .cards { display: flex; flex-wrap: wrap; gap: 12px; }\n"
     << ".tile { background: #fff; border: 1px solid #dde3ea;"
        " border-radius: 6px; padding: 10px 16px; min-width: 110px; }\n"
     << ".tile .value { font-size: 18px; font-weight: 600; }\n"
     << ".tile .label { font-size: 11px; color: #5b6b7b; }\n"
     << ".card { background: #fff; border: 1px solid #dde3ea;"
        " border-radius: 6px; padding: 10px 14px; }\n"
     << ".caption { font-size: 11px; color: #5b6b7b; margin-bottom: 4px; }\n"
     << "table { border-collapse: collapse; background: #fff; }\n"
     << "th, td { border: 1px solid #dde3ea; padding: 5px 12px;"
        " text-align: right; font-variant-numeric: tabular-nums; }\n"
     << "th { background: #eef2f6; } td:first-child, th:first-child"
        " { text-align: left; }\n"
     << "text.axis, text.nodata { font: 10px system-ui, sans-serif;"
        " fill: #5b6b7b; }\n"
     << "</style>\n</head>\n<body>\n";

  os << "<h1>wsmd run · " << html_escape(in.title) << "</h1>\n";

  // Summary tiles.
  double mean_ns_day = 0.0;
  if (!in.snapshots.empty()) {
    for (const auto& r : in.snapshots) mean_ns_day += r.ns_per_day;
    mean_ns_day /= static_cast<double>(in.snapshots.size());
  } else if (in.wall_seconds > 0.0) {
    mean_ns_day = static_cast<double>(in.total_steps) * in.dt_ps * 1e-3 /
                  in.wall_seconds * 86400.0;
  }
  os << "<div class=\"tiles\">\n"
     << summary_tile("backend", in.backend)
     << summary_tile("atoms", fmt_mag(static_cast<double>(in.atoms)))
     << summary_tile("steps", fmt_mag(static_cast<double>(in.total_steps)))
     << summary_tile("wall", fmt(in.wall_seconds, "%.3g") + " s")
     << summary_tile("ns/day", fmt_mag(mean_ns_day))
     << summary_tile("snapshots",
                     fmt_mag(static_cast<double>(in.snapshots.size())))
     << "</div>\n";

  // Snapshot time series.
  std::vector<double> ns_day, pairs, imbalance;
  std::map<std::string, std::vector<double>> span_series;
  for (std::size_t i = 0; i < in.snapshots.size(); ++i) {
    const auto& r = in.snapshots[i];
    ns_day.push_back(r.ns_per_day);
    pairs.push_back(r.pairs_per_s);
    imbalance.push_back(r.imbalance);
    for (const auto& [name, delta] : r.span_delta_s) {
      auto& series = span_series[name];
      series.resize(i, 0.0);  // pad intervals where the span was silent
      series.push_back(delta);
    }
  }
  for (auto& [name, series] : span_series) {
    series.resize(in.snapshots.size(), 0.0);
  }

  os << "<h2>Throughput over time</h2>\n<div class=\"cards\">\n"
     << spark_card("ns/day", ns_day) << spark_card("pairs/s", pairs)
     << spark_card("shard imbalance (max/mean busy)", imbalance)
     << "</div>\n";

  // Top span series by total time across the run.
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, series] : span_series) {
    double total = 0.0;
    for (double v : series) total += v;
    ranked.emplace_back(total, name);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  if (!ranked.empty()) {
    os << "<h2>Phase time per interval (s)</h2>\n<div class=\"cards\">\n";
    for (std::size_t i = 0; i < std::min<std::size_t>(ranked.size(), 6);
         ++i) {
      os << spark_card(ranked[i].second, span_series[ranked[i].second]);
    }
    os << "</div>\n";
  }

  // Measured vs modeled cost table.
  if (!in.cost.empty()) {
    os << "<h2>Measured vs modeled cost</h2>\n<table>\n"
       << "<tr><th>phase</th><th>measured s</th><th>modeled s</th>"
          "<th>ratio</th></tr>\n";
    for (const auto& row : in.cost) {
      os << "<tr><td>" << html_escape(row.phase) << "</td><td>"
         << fmt(row.measured_seconds) << "</td><td>"
         << (row.has_modeled ? fmt(row.modeled_seconds) : std::string("—"))
         << "</td><td>"
         << (row.ratio > 0.0 ? fmt(row.ratio, "%.3g") : std::string("—"))
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  // Shard load: cumulative busy/wait summed over the snapshot intervals,
  // plus the distribution of the per-interval imbalance ratio.
  std::vector<double> busy_total, wait_total;
  for (const auto& r : in.snapshots) {
    busy_total.resize(std::max(busy_total.size(), r.shard_busy_s.size()),
                      0.0);
    wait_total.resize(std::max(wait_total.size(), r.shard_wait_s.size()),
                      0.0);
    for (std::size_t i = 0; i < r.shard_busy_s.size(); ++i) {
      busy_total[i] += r.shard_busy_s[i];
    }
    for (std::size_t i = 0; i < r.shard_wait_s.size(); ++i) {
      wait_total[i] += r.shard_wait_s[i];
    }
  }
  os << "<h2>Shard load (busy vs barrier wait, s)</h2>\n"
     << "<div class=\"cards\"><div class=\"card\">";
  if (busy_total.empty()) {
    os << "<div class=\"caption\">no per-shard snapshots (single-worker "
          "backend or telemetry.snapshot off)</div>";
  } else {
    os << shard_bars(busy_total, wait_total);
  }
  os << "</div><div class=\"card\"><h3>imbalance histogram</h3>"
     << imbalance_histogram(imbalance) << "</div></div>\n";

  os << "</body>\n</html>\n";
  return os.str();
}

void write_dashboard_html(const std::string& path,
                          const DashboardInput& input) {
  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open dashboard file '" << path << "'");
  os << render_dashboard_html(input);
  os.flush();
  if (!os.good()) throw WriteError(path, "dashboard");
}

}  // namespace wsmd::telemetry
