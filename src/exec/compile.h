#ifndef BAGALG_EXEC_COMPILE_H_
#define BAGALG_EXEC_COMPILE_H_

// exec::RunPipeline and exec::ExecOptions are declared in src/ir/run.h.
// This path is kept only for perfbench/workload_test.cc, which includes it.
#include "src/ir/run.h"

#endif  // BAGALG_EXEC_COMPILE_H_
