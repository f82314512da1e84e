# Runs `bench_runner --run=SCENARIO --out=OUT_DIR` and fails unless the
# run leaves OUT_DIR/BENCH_<SCENARIO>.json, parsing as a record of that
# scenario with a metrics object.
#
#   cmake -DRUNNER=path/to/bench_runner -DSCENARIO=name -DOUT_DIR=dir \
#         -P check_run_record.cmake
foreach(var RUNNER SCENARIO OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_run_record: -D${var}=... is required")
  endif()
endforeach()

# A record left by an earlier run must not pass for this one.
file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${RUNNER}" "--run=${SCENARIO}" "--out=${OUT_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_runner --run=${SCENARIO} exited with ${rc}")
endif()

set(record "${OUT_DIR}/BENCH_${SCENARIO}.json")
if(NOT EXISTS "${record}")
  message(FATAL_ERROR "--run with --out wrote no ${record}")
endif()
file(READ "${record}" json)
string(JSON name ERROR_VARIABLE error GET "${json}" scenario)
if(error)
  message(FATAL_ERROR "${record} does not parse: ${error}")
endif()
if(NOT name STREQUAL SCENARIO)
  message(FATAL_ERROR "${record} names scenario '${name}'")
endif()
string(JSON metrics ERROR_VARIABLE error TYPE "${json}" metrics)
if(error OR NOT metrics STREQUAL "OBJECT")
  message(FATAL_ERROR "${record} has no metrics object")
endif()
