// Text tables and JSON rows from one spelling, for the experiment
// harnesses. Every fig_*/tbl_* binary prints aligned tables under a header
// block naming the experiment and the paper claim it reproduces, so
// bench_output.txt reads as a self-contained lab notebook; with --json it
// writes the same rows to BENCH_<name>.json (bench/harness.h).
//
// A Table's columns name the JSON keys, which double as the text headers.
// Add(cells) prints one aligned line and returns the matching JSON object,
// so each value is written exactly once and the two outputs cannot drift.
#ifndef SPEEDKIT_BENCH_TABLE_H_
#define SPEEDKIT_BENCH_TABLE_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.h"

namespace speedkit::bench {

using obs::JsonRow;
using obs::JsonValue;

inline void PrintHeader(const std::string& id, const std::string& title,
                        const std::string& reproduces) {
  std::printf("\n");
  std::printf("================================================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("reproduces: %s\n", reproduces.c_str());
  std::printf("================================================================================\n");
}

inline void PrintSection(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

inline void Note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

struct Column {
  std::string key;         // the JSON key, also the text header
  int precision = 2;       // digits after the point for a double cell
  bool percent = false;    // text shows 100x the value and '%'; JSON keeps it
  bool json_only = false;  // written to JSON, not printed
  int width = 10;          // text width; never narrower than the header
};

class Table {
 public:
  // Prints `title` (if any) as a section line, then the header line.
  // A non-empty `section` leads every row's JSON as its "section" key.
  Table(std::string title, std::string section, std::vector<Column> columns)
      : name_(section.empty() ? title : section),
        section_(std::move(section)),
        columns_(std::move(columns)) {
    if (!title.empty()) PrintSection(title);
    std::vector<std::string> headers;
    for (const Column& c : columns_) headers.push_back(c.key);
    PrintLine(headers);
  }

  // One cell per column, in column order. A SeedStats object
  // (JsonSeedStats) prints as mean±stddev.
  JsonValue Add(std::vector<JsonValue> cells) const {
    if (cells.size() != columns_.size()) {
      std::fprintf(stderr, "FATAL: table '%s' got %zu cells for %zu columns\n",
                   name_.c_str(), cells.size(), columns_.size());
      std::abort();
    }
    JsonValue row = JsonValue::Object();
    if (!section_.empty()) row.Set("section", section_);
    std::vector<std::string> text;
    for (size_t i = 0; i < cells.size(); ++i) {
      text.push_back(CellText(columns_[i], cells[i]));
      row.Set(columns_[i].key, std::move(cells[i]));
    }
    PrintLine(text);
    return row;
  }

 private:
  static std::string CellText(const Column& c, const JsonValue& cell) {
    const double scale = c.percent ? 100.0 : 1.0;
    const std::string unit = c.percent ? "%" : "";
    const JsonValue* mean = cell.Find("mean");
    const JsonValue* stddev = cell.Find("stddev");
    if (mean != nullptr && stddev != nullptr) {
      return mean->Text(c.precision, scale) + unit + "±" +
             stddev->Text(c.precision, scale);
    }
    return cell.Text(c.precision, scale) + unit;
  }

  // Right-aligns every printed cell to its column width, counting UTF-8
  // code points so '±' takes one column.
  void PrintLine(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      const Column& c = columns_[i];
      if (c.json_only) continue;
      size_t shown = std::count_if(cells[i].begin(), cells[i].end(),
                                   [](char ch) { return (ch & 0xC0) != 0x80; });
      size_t width = std::max(static_cast<size_t>(c.width), c.key.size());
      if (!line.empty()) line += ' ';
      line.append(width > shown ? width - shown : 0, ' ');
      line += cells[i];
    }
    std::printf("%s\n", line.c_str());
  }

  std::string name_;
  std::string section_;
  std::vector<Column> columns_;
};

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_TABLE_H_
