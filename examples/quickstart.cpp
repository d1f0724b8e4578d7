// Quickstart: the whole amsyn flow in one file.
//
// Specify an opamp -> pick a topology -> size it -> verify by simulation ->
// lay it out -> extract parasitics -> verify again post-layout.  This is the
// hierarchical performance-driven methodology of the paper's section 2.1,
// driven through the high-level core API.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/flow.hpp"
#include "core/report.hpp"

int main() {
  using namespace amsyn;

  // 1. The specification: what the circuit must do.
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 65.0)
      .atLeast("ugf", 3e6)     // unity-gain frequency (Hz)
      .atLeast("pm", 50.0)     // phase margin (degrees)
      .atMost("power", 5e-3)   // watts
      .minimize("power", 0.3, 1e-3);

  // 2. Run the flow against the default 0.8 um process.
  const auto& proc = circuit::defaultProcess();
  core::FlowOptions opts;
  opts.loadCap = 5e-12;
  const auto result = core::synthesizeAmplifier(specs, proc, opts);

  if (!result.success) {
    std::cout << "synthesis failed: " << result.failureReason << "\n";
    return 1;
  }

  // 3. Report, paper-style.
  std::cout << "topology: " << result.topology << "\n";
  std::cout << "redesign iterations (closing the loop): " << result.redesigns << "\n\n";

  core::Table table({"performance", "spec", "pre-layout", "post-layout"});
  // The final attempt's post-layout record, beside the pre-layout record of
  // that same attempt (earlier attempts were redesigned away).
  const auto& final = result.verifications.back();
  const auto preRec =
      std::find_if(result.verifications.begin(), result.verifications.end(),
                   [&](const core::VerificationRecord& v) {
                     return v.stage == "pre-layout" && v.attempt == final.attempt;
                   });
  const auto& pre = preRec->measured;
  const auto& post = final.measured;
  table.addRow({"gain (dB)", ">= 65", core::Table::num(pre.at("gain_db")),
                core::Table::num(post.at("gain_db"))});
  table.addRow({"UGF (MHz)", ">= 3", core::Table::num(pre.at("ugf") / 1e6),
                core::Table::num(post.at("ugf") / 1e6)});
  table.addRow({"phase margin (deg)", ">= 50", core::Table::num(pre.at("pm")),
                core::Table::num(post.at("pm"))});
  table.addRow({"power (mW)", "<= 5", core::Table::num(pre.at("power") * 1e3),
                core::Table::num(post.at("power") * 1e3)});
  table.print(std::cout);

  std::cout << "\nlayout: " << result.cell.areaLambda2 << " lambda^2, "
            << result.cell.wirelengthLambda << " lambda of wire, "
            << result.cell.stackedDevices << " devices merged into stacks\n";
  std::cout << "matching constraints found: " << result.cell.matching.size() << "\n";
  return 0;
}
