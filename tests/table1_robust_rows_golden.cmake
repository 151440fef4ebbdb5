# Runs table1_ixp_synth_control and compares its robust synthetic control
# row block (from the "Robust synthetic control" heading to the first
# blank line) with the golden copy, so a numerical change to the fitting
# path must reproduce the Table 1 rows that EXPERIMENTS.md reports.
#
#   cmake -DTABLE1=<table1_ixp_synth_control> -DGOLDEN=<rows file>
#         -P table1_robust_rows_golden.cmake
execute_process(COMMAND ${TABLE1} --threads 2
  OUTPUT_VARIABLE output
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${TABLE1} exited with ${status}")
endif()
set(heading "Robust synthetic control (paper's estimator):")
string(FIND "${output}" "${heading}" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "no '${heading}' block in the table1 output")
endif()
string(SUBSTRING "${output}" ${begin} -1 rest)
string(FIND "${rest}" "\n\n" end)
if(end EQUAL -1)
  message(FATAL_ERROR "the robust row block has no terminating blank line")
endif()
math(EXPR length "${end} + 1")
string(SUBSTRING "${rest}" 0 ${length} block)
file(READ ${GOLDEN} golden)
if(NOT block STREQUAL golden)
  message(FATAL_ERROR
    "robust Table 1 rows differ from ${GOLDEN}\n"
    "--- golden\n${golden}--- actual\n${block}")
endif()
message(STATUS "robust Table 1 rows match ${GOLDEN}")
