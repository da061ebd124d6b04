# Runs a command and fails unless it exits with EXPECT_EXIT and prints a
# line matching EXPECT_STDERR to stderr. Used by the CLI usage-error tests:
#   cmake -DCOMMAND=<exe> -DARGS=a|b|c -DEXPECT_EXIT=2
#         -DEXPECT_STDERR=<regex> -P expect_exit.cmake
# ARGS is '|'-separated so it survives add_test's list handling.
# Optional: FRESH_DIR is removed before the run, and EXPECT_FILE must
# exist after it.
if(DEFINED FRESH_DIR)
  file(REMOVE_RECURSE "${FRESH_DIR}")
endif()
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
if(DEFINED EXPECT_FILE AND NOT EXISTS "${EXPECT_FILE}")
  message(FATAL_ERROR "expected file ${EXPECT_FILE} was not written\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
