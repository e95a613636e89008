#include "src/ir/verify.h"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/ir/dataflow.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/ir/passes.h"

namespace bagalg::ir {

bool IrVerifyEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("BAGALG_IR_VERIFY");
    if (env != nullptr) {
      if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
          std::strcmp(env, "true") == 0) {
        return true;
      }
      if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
          std::strcmp(env, "false") == 0) {
        return false;
      }
    }
#ifndef NDEBUG
    return true;
#else
    return false;
#endif
  }();
  return enabled;
}

Status VerifyIr(const IrPlan& plan) {
  BAGALG_RETURN_IF_ERROR(CheckFusionLegality(plan));
  // The row layout the executor runs on is the structural check: every
  // node's row type, so child counts, union and merge children, join
  // arities and keys, and every stage program agree cell for cell.
  return ComputeRowLayouts(plan).status();
}

Status ValidateTranslation(const Expr& expr, const Database& db,
                           ValidationReport* report) {
  LowerOptions options;
  options.verify = LowerOptions::Verify::kOn;
  options.observer = [&db, report](const std::string& pass,
                                   const IrPlan& before,
                                   const IrPlan& after) -> Status {
    if (before.root == nullptr || after.root == nullptr) {
      return Status::Internal("translation validation: pass " + pass +
                              " observed a rootless plan");
    }
    if (IrEquals(*before.root, *after.root)) return Status::Ok();
    if (report != nullptr) report->passes_changed++;
    Result<Bag> was = ExecuteIr(before, db);
    Result<Bag> now = ExecuteIr(after, db);
    if (was.ok() != now.ok()) {
      return Status::Internal(
          "translation validation: pass " + pass +
          " changed the execution outcome (" +
          (was.ok() ? "ok -> " + now.status().message()
                    : was.status().message() + " -> ok") +
          ")");
    }
    if (!was.ok()) {
      // Both fail (e.g. under an injected fault): nothing to compare.
      return Status::Ok();
    }
    if (report != nullptr) report->passes_executed++;
    if (!(was.value() == now.value())) {
      return Status::Internal(
          "translation validation: pass " + pass +
          " changed the result bag (" +
          std::to_string(was.value().DistinctCount()) + " distinct/" +
          was.value().TotalCount().ToString() + " total -> " +
          std::to_string(now.value().DistinctCount()) + " distinct/" +
          now.value().TotalCount().ToString() + " total)");
    }
    return Status::Ok();
  };
  return LowerToIr(expr, db, options).status();
}

}  // namespace bagalg::ir
