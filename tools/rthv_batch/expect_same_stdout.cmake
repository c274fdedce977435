# Runs one binary with two argument lists and passes only if both exit 0
# with byte-identical stdout (stderr is free to differ).
#
# usage: cmake -DBIN=<binary> -DARGS_A="<args>" -DARGS_B="<args>"
#              -P expect_same_stdout.cmake
foreach(run A B)
  separate_arguments(args UNIX_COMMAND "${ARGS_${run}}")
  execute_process(COMMAND "${BIN}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out_${run} ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "'${ARGS_${run}}' exited with '${rc}'\nstderr:\n${err}")
  endif()
endforeach()
if(NOT out_A STREQUAL out_B)
  message(FATAL_ERROR "stdout differs\n--- ${ARGS_A}:\n${out_A}\n--- ${ARGS_B}:\n${out_B}")
endif()
