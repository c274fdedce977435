# Runs one CLI invocation whose outcome is pinned: passes only if the
# process exits with code EXIT (a crash reports a signal instead) and the
# stream STREAM (stderr by default, or stdout) matches the regular
# expression MESSAGE.
#
# usage: cmake -DBIN=<binary> -DARGS="<space-separated args>" -DEXIT=<code>
#              -DMESSAGE=<regex> [-DSTREAM=stdout] -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit code ${EXIT}, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(STREAM STREQUAL "stdout")
  set(text "${out}")
else()
  set(STREAM "stderr")
  set(text "${err}")
endif()
if(NOT text MATCHES "${MESSAGE}")
  message(FATAL_ERROR "${STREAM} does not match '${MESSAGE}':\n${text}")
endif()
