# Byte-compares artifacts pairwise and fails naming every pair that
# differs, so one fixture can pin a whole artifact set:
#
#   cmake "-DPAIRS=<want>|<got>|<want>|<got>..." -P compare_artifacts.cmake
string(REPLACE "|" ";" pairs "${PAIRS}")
list(LENGTH pairs count)
math(EXPR odd "${count} % 2")
if(count EQUAL 0 OR odd)
  message(FATAL_ERROR "PAIRS must hold <want>|<got> pairs: '${PAIRS}'")
endif()
set(differ "")
math(EXPR last "${count} - 2")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET pairs ${i} want)
  list(GET pairs ${j} got)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${want} ${got}
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    string(APPEND differ "\n  ${got} differs from ${want}")
  endif()
endforeach()
if(differ)
  message(FATAL_ERROR "artifacts differ:${differ}")
endif()
