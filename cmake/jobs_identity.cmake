# The --jobs determinism check, run as a script:
#
#   cmake -P jobs_identity.cmake <bench> [args...]
#
# Runs <bench> [args...] once with --jobs 1 and once with --jobs 8.
# Fails if either run exits nonzero (a bench's --smoke self-checks
# fail through its exit code) or if the two stdouts differ: sweep
# scheduling must never leak into the simulation.

# Script-mode argv: cmake -P <this file> <bench> [args...]
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd "")
foreach(i RANGE 3 ${last})
    list(APPEND cmd "${CMAKE_ARGV${i}}")
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "usage: cmake -P jobs_identity.cmake <bench> [args...]")
endif()
list(JOIN cmd " " shown)

foreach(jobs 1 8)
    execute_process(COMMAND ${cmd} --jobs ${jobs}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out_${jobs}
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${shown} --jobs ${jobs} exited ${rc}\n"
            "--- stdout\n${out_${jobs}}\n--- stderr\n${err}")
    endif()
endforeach()

if(NOT out_1 STREQUAL out_8)
    # Keep both outputs in the test's working directory for a diff.
    get_filename_component(bench "${CMAKE_ARGV3}" NAME)
    file(WRITE "${bench}.jobs1.txt" "${out_1}")
    file(WRITE "${bench}.jobs8.txt" "${out_8}")
    message(FATAL_ERROR "${shown}: stdout differs between --jobs 1 and "
        "--jobs 8 (see ${bench}.jobs1.txt, ${bench}.jobs8.txt)")
endif()
message(STATUS "${shown}: --jobs 1 and --jobs 8 stdout identical")
