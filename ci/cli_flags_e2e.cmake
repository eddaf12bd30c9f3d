# Strict numeric flags of the single-run tools, run as a ctest entry
# (cmake -P): every malformed --rows/--cols/--seed/--max-steps/--capacity
# value must make `run_doctor --record` exit 2 without writing a recording,
# and every malformed --rows/--cols/--seed/--max-steps value must make
# `explore_cli` exit 2.  A well-formed control run of each tool must still
# succeed, so the probes cannot pass by rejecting everything.
#
# Expected -D definitions: DOCTOR (run_doctor binary), EXPLORE (explore_cli
# binary), OUT_DIR (scratch directory).
foreach(var DOCTOR EXPLORE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_flags_e2e: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs TOOL with ARGN and fails unless it exits with EXPECT; a rejection
# (exit 2) must also name the offending argument.
function(expect_rc label expect tool)
  execute_process(
    COMMAND "${tool}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expect)
    message(FATAL_ERROR "cli_flags_e2e: ${label} exited ${rc}, expected ${expect}:\n"
                        "${out}\n${err}")
  endif()
  if(expect EQUAL 2 AND NOT err MATCHES "bad value in '")
    message(FATAL_ERROR "cli_flags_e2e: ${label} did not name the bad value:\n${err}")
  endif()
endfunction()

set(ok_rec "${OUT_DIR}/ok.lumirec")
expect_rc("run_doctor control" 0 "${DOCTOR}" "--record=${ok_rec}" --section=4.2.1 --rows=4
          --cols=5 --seed=3 --max-steps=5000 --capacity=64)
if(NOT EXISTS "${ok_rec}")
  message(FATAL_ERROR "cli_flags_e2e: run_doctor control wrote no recording")
endif()
expect_rc("explore_cli control" 0 "${EXPLORE}" --section=4.3.1 --rows=4 --cols=5
          --sched=async-random --seed=3 --max-steps=5000)

set(doctor_bad
    --seed=-1 --seed=abc --seed=4294967296 --seed=3x
    --rows=x --rows=4x --rows=0 --rows=-3 --rows=99999999999
    --cols=abc --cols=5.0 --cols=
    --max-steps=0 --max-steps=1e6 --max-steps=-5 --max-steps=99999999999999999999
    --capacity=-1 --capacity=64k --capacity=abc)
set(index 0)
foreach(flag IN LISTS doctor_bad)
  math(EXPR index "${index} + 1")
  set(rec "${OUT_DIR}/bad${index}.lumirec")
  expect_rc("run_doctor '${flag}'" 2 "${DOCTOR}" "--record=${rec}" --section=4.2.1 "${flag}")
  if(EXISTS "${rec}")
    message(FATAL_ERROR "cli_flags_e2e: run_doctor '${flag}' was rejected but wrote ${rec}")
  endif()
endforeach()

set(explore_bad
    --rows=4abc --rows=abc --rows=0 --rows=-4 --rows=99999999999
    --cols=6x --cols=
    --seed=abc --seed=-1 --seed=4294967296 --seed=7.5
    --max-steps=0 --max-steps=2k --max-steps=-1)
foreach(flag IN LISTS explore_bad)
  math(EXPR index "${index} + 1")
  expect_rc("explore_cli '${flag}'" 2 "${EXPLORE}" --section=4.3.1 "${flag}")
endforeach()

message(STATUS "cli_flags_e2e: ${index} malformed numeric flags rejected, no recording written")
