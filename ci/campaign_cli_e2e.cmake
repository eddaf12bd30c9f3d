# End-to-end campaign_cli check, run as a ctest entry (cmake -P):
#   1. a plain run, a --checkpoint run, and a --max-jobs cut followed by a
#      --checkpoint resume of the same small matrix must write byte-identical
#      --csv and --json reports (one dispatcher: every path is the same one);
#   2. every malformed numeric flag must exit 2 without writing a report.
#
# Expected -D definitions: CLI (campaign_cli binary), OUT_DIR (scratch
# directory).
foreach(var CLI OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_cli_e2e: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(matrix --sections=4.2.1,4.3.1 --rows=4..6:2 --cols=4..6:2
           --scheds=fsync,ssync-random,async-random --seeds=3 --quiet)

# Runs campaign_cli with the shared matrix plus ARGN, writing NAME.csv and
# NAME.json, and fails unless it exits with EXPECT_RC.
function(run_cli name expect_rc)
  execute_process(
    COMMAND "${CLI}" ${matrix} "--csv=${OUT_DIR}/${name}.csv" "--json=${OUT_DIR}/${name}.json"
            ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR "campaign_cli_e2e: '${name}' exited ${rc}, expected ${expect_rc}:\n"
                        "${out}\n${err}")
  endif()
endfunction()

function(expect_same_reports a b)
  foreach(ext csv json)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT_DIR}/${a}.${ext}"
              "${OUT_DIR}/${b}.${ext}"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "campaign_cli_e2e: ${a}.${ext} and ${b}.${ext} differ")
    endif()
  endforeach()
endfunction()

run_cli(plain 0 --threads=2)
run_cli(checkpointed 0 --threads=1 "--checkpoint=${OUT_DIR}/full.ckpt")
expect_same_reports(plain checkpointed)

# The cut run is incomplete, so it exits 1; its resume skips what it did.
run_cli(cut 1 --threads=2 --max-jobs=5 "--checkpoint=${OUT_DIR}/cut.ckpt")
run_cli(resumed 0 --threads=3 --batch=1 "--checkpoint=${OUT_DIR}/cut.ckpt")
expect_same_reports(plain resumed)

set(bad_flags
    --seeds=1x --seeds=0 --seeds=-2 --seeds=99999999999
    --threads=-1 --threads=abc --threads=99999999999
    --batch=-1 --batch=4k
    --max-steps=0 --max-steps=1e6 --max-steps=99999999999999999999
    --max-jobs=abc --max-jobs=-5
    --flush-interval=0 --flush-interval=1s --flush-interval=-2 --flush-interval=inf
    --adaptive-max-extra=-3 --adaptive-max-extra=3x
    --adaptive-round=0 --adaptive-round=2x
    --adaptive-variance=x --adaptive-variance=-1 --adaptive-variance=nan
    "--record-anomalies=${OUT_DIR}/rec,2x" "--record-anomalies=${OUT_DIR}/rec,0"
    "--record-anomalies=${OUT_DIR}/rec,-1")
set(index 0)
foreach(flag IN LISTS bad_flags)
  math(EXPR index "${index} + 1")
  run_cli(bad${index} 2 "${flag}")
  foreach(ext csv json)
    if(EXISTS "${OUT_DIR}/bad${index}.${ext}")
      message(FATAL_ERROR "campaign_cli_e2e: '${flag}' was rejected but wrote a report")
    endif()
  endforeach()
endforeach()

message(STATUS "campaign_cli_e2e: reports identical across plain/checkpoint/resume; "
               "${index} malformed flags rejected")
