# Runs a command and fails unless it exits with the expected code and its
# stderr matches a regex. Asserting the code itself catches crashes: an
# uncaught exception aborts with a signal whose message would still match.
#
#   cmake -DCMD=<program> "-DARGS=<space-separated arguments>"
#         -DEXPECT_EXIT=<code> -DEXPECT_STDERR=<regex> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit '${code}', expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
