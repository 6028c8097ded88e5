# Paper-output golden check: runs BENCH and fails unless it exits 0 and
# its stdout equals GOLDEN byte for byte. On a mismatch the actual output
# is written next to the test's working directory as <name>.actual.txt.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  file(WRITE "${name}.actual.txt" "${actual}")
  message(FATAL_ERROR "${BENCH}: stdout differs from ${GOLDEN}; see "
                      "${name}.actual.txt (diff it against the golden file)")
endif()
