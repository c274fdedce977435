# Runs one rthv_batch invocation that must be rejected cleanly: passes only
# if the process exits with code EXIT (a crash reports a signal instead) and
# its stderr matches the regular expression MESSAGE.
#
# usage: cmake -DBIN=<rthv_batch> -DARGS="<space-separated args>" -DEXIT=<code>
#              -DMESSAGE=<regex> -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit code ${EXIT}, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "stderr does not match '${MESSAGE}':\n${err}")
endif()
