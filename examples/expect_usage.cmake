# Runs EXE with the '|'-separated ARGS and fails unless it exits 2 with a
# usage message: bad command-line input must be refused, not wrapped into
# a huge count or quietly replaced by the default. The timeout catches a
# run that took the bad input and started simulating.
#
#   cmake -DEXE=<binary> "-DARGS=put_bw|thunderx2-cx4|-5" -P expect_usage.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET TIMEOUT 20)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "expected exit 2 with usage for '${ARGS}', got '${rc}': ${err}")
endif()
