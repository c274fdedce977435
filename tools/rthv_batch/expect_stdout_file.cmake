# Runs one binary and passes only if it exits 0 with stdout byte-identical
# to a committed file (stderr is free to differ).
#
# usage: cmake -DBIN=<binary> [-DARGS="<args>"] -DEXPECTED=<file>
#              -P expect_stdout_file.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'${BIN} ${ARGS}' exited with '${rc}'\nstderr:\n${err}")
endif()
file(READ "${EXPECTED}" want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "stdout differs from ${EXPECTED}\n--- got:\n${out}\n--- want:\n${want}")
endif()
