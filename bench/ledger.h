// The printed tables, BENCH rows and exit status of a bench run
// (every bench: campaign, paper_claims, removal, serve). Every cell of a
// printed table is a field of a BENCH row, and a broken invariant fails
// the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "deadlock/removal.h"
#include "noc/design.h"
#include "util/json.h"
#include "util/table.h"

namespace nocdr::bench {

/// The BENCH rows and the exit status of one run.
class Ledger {
 public:
  /// Rows go to BENCH_<bench>.json.
  explicit Ledger(std::string bench) : json_(std::move(bench)) {}

  /// A row of \p section about \p design; the caller sets its numbers.
  static JsonObject Row(const std::string& section,
                        const std::string& design) {
    return JsonObject().Set("section", section).Set("design", design);
  }

  void Add(JsonObject row) { json_.AddRow(std::move(row)); }

  /// Fails the run unless \p ok.
  void Expect(bool ok, const std::string& design, const std::string& what) {
    if (!ok) {
      std::cout << "INVARIANT BROKEN: " << design << ": " << what << "\n";
      ++broken_;
    }
  }

  void ExpectAcyclic(const NocDesign& design, const std::string& method) {
    Expect(IsDeadlockFree(design), design.name, method + " left a cyclic CDG");
  }

  /// One claim the paper states: it holds when \p measured stands in
  /// relation \p rule ("=", ">=", ">" or "<") to \p paper.
  void Claim(const std::string& claim, const std::string& scope,
             const std::string& rule, double paper, double measured) {
    const bool holds = rule == "="    ? measured == paper
                       : rule == ">=" ? measured >= paper
                       : rule == ">"  ? measured > paper
                                      : measured < paper;
    Add(Row("claim", scope)
            .Set("arm", claim)
            .Set("rule", rule)
            .Set("paper", paper)
            .Set("measured", measured)
            .Set("holds", holds));
  }

  /// Writes the rows and returns the exit code.
  int Finish() {
    std::cout << "\ninvariants broken: " << broken_ << "\n";
    if (const std::string path = json_.Write(); !path.empty()) {
      std::cout << "rows written to " << path << "\n";
    }
    return broken_ == 0 ? 0 : 1;
  }

 private:
  BenchJsonWriter json_;
  std::size_t broken_ = 0;
};

/// One printed table cell and the BENCH field that records it. A cell
/// with an empty key is printed only: a label its row already names.
struct Cell {
  Cell(std::string key, std::string value)
      : key(std::move(key)), json(JsonText(value)), text(std::move(value)) {}
  Cell(std::string key, std::size_t count)
      : key(std::move(key)),
        json(JsonText(std::uint64_t{count})),
        text(std::to_string(count)) {}
  Cell(std::string key, double value, int digits, const char* unit = "")
      : key(std::move(key)),
        json(JsonText(value)),
        text(FormatDouble(value, digits) + unit) {}
  Cell(std::string key, bool value, std::string shown)
      : key(std::move(key)), json(JsonText(value)), text(std::move(shown)) {}

  std::string key;
  std::string json;
  std::string text;
};

/// A printed table whose every row is also a BENCH row of one section.
class Table {
 public:
  Table(Ledger& ledger, std::string section, std::vector<std::string> header)
      : ledger_(ledger), section_(std::move(section)) {
    text_.SetHeader(std::move(header));
  }

  /// This table's row, before its cells: the caller may set fields the
  /// table does not print.
  [[nodiscard]] JsonObject Row() const {
    return JsonObject().Set("section", section_);
  }
  /// This table's row about \p design, before its cells.
  [[nodiscard]] JsonObject Row(const std::string& design) const {
    return Row().Set("design", design);
  }

  /// Prints \p cells as one row and records them as the row of \p design.
  void Add(const std::string& design, const std::vector<Cell>& cells) {
    Add(Row(design), cells);
  }

  /// Prints \p cells as one row and records them in \p row.
  void Add(JsonObject row, const std::vector<Cell>& cells) {
    std::vector<std::string> texts;
    for (const Cell& cell : cells) {
      if (!cell.key.empty()) {
        row.SetRaw(cell.key, cell.json);
      }
      texts.push_back(cell.text);
    }
    text_.AddRow(std::move(texts));
    ledger_.Add(std::move(row));
  }

  void Print() const { text_.Print(std::cout); }

 private:
  Ledger& ledger_;
  std::string section_;
  TextTable text_;
};

}  // namespace nocdr::bench
