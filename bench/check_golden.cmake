# Runs a deterministic bench binary and fails unless its stdout matches the
# committed golden file byte for byte.
#
#   cmake -DBIN=<executable> -DGOLDEN=<expected.txt> -P check_golden.cmake
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  # NOTICE prints verbatim; FATAL_ERROR would reflow the tables.
  message(NOTICE "--- expected ---\n${expected}--- actual ---\n${actual}")
  message(FATAL_ERROR "${BIN} output differs from ${GOLDEN}")
endif()
