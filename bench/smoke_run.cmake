# Runs one bench's --smoke iteration in a fresh working directory, then
# fails if the run left a file under a tracked BENCH_*.json name (the
# `!BENCH_*.json` exceptions in the repository's .gitignore).  A smoke run
# must never be able to overwrite a tracked result.
#
# Invoked by ctest:
#   cmake -DBENCH=<bin> -DWORK_DIR=<dir> -DGITIGNORE=<file> -P smoke_run.cmake
foreach(var BENCH WORK_DIR GITIGNORE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" --smoke
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke failed (rc=${rc})")
endif()

file(STRINGS "${GITIGNORE}" tracked REGEX "^!BENCH_.*\\.json$")
foreach(line ${tracked})
  string(SUBSTRING "${line}" 1 -1 name)
  if(EXISTS "${WORK_DIR}/${name}")
    message(FATAL_ERROR "${BENCH} --smoke wrote the tracked file ${name}")
  endif()
endforeach()
