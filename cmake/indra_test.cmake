# Test registration. Every ctest gets its label where it is
# registered, and each function below stops configuration when the
# label is missing, so a preset that excludes one label still runs
# every other test (tests/CMakeLists.txt's every_test_labelled ctest
# fails if `ctest -N -LE .` lists anything).

include(GoogleTest)

function(indra_require_label fn name label)
    if(NOT label)
        message(FATAL_ERROR "${fn}(${name}): LABEL <label> is required")
    endif()
endfunction()

# indra_gtest(<target> LABEL <label> SOURCES <src>... [LIBS <lib>...])
# Builds one GoogleTest binary linked against LIBS and gtest_main and
# registers each of its cases as a ctest carrying <label>.
function(indra_gtest target)
    cmake_parse_arguments(PARSE_ARGV 1 arg "" "LABEL" "SOURCES;LIBS")
    indra_require_label(indra_gtest ${target} "${arg_LABEL}")
    add_executable(${target} ${arg_SOURCES})
    target_link_libraries(${target} PRIVATE ${arg_LIBS} GTest::gtest_main)
    gtest_discover_tests(${target} DISCOVERY_TIMEOUT 60
        PROPERTIES LABELS ${arg_LABEL})
endfunction()

# indra_test(<name> LABEL <label> COMMAND <cmd>... [PROPERTIES <p> <v>...])
# One add_test carrying <label> (a label or a list of labels) and any
# further test properties.
function(indra_test name)
    cmake_parse_arguments(PARSE_ARGV 1 arg "" "LABEL" "COMMAND;PROPERTIES")
    indra_require_label(indra_test ${name} "${arg_LABEL}")
    add_test(NAME ${name} COMMAND ${arg_COMMAND})
    set_tests_properties(${name} PROPERTIES LABELS "${arg_LABEL}"
        ${arg_PROPERTIES})
endfunction()

# indra_jobs_identity_test(<name> LABEL <label> [GOLDEN <file>]
#                          COMMAND <target> [args...])
# The one --jobs determinism check. Runs `<target> args... --jobs 1`
# and `--jobs 8` (cmake/jobs_identity.cmake) and fails on a nonzero
# exit, so a --smoke run's self-checks are enforced too, or on any
# stdout difference between the two. With GOLDEN, the --jobs 1 stdout
# must also equal <file> (relative to the source root) byte for byte,
# and the test also carries the `golden` label (`ctest -L golden`).
function(indra_jobs_identity_test name)
    cmake_parse_arguments(PARSE_ARGV 1 arg "" "LABEL;GOLDEN" "COMMAND")
    list(POP_FRONT arg_COMMAND target)
    set(golden "")
    set(labels ${arg_LABEL})
    if(arg_GOLDEN)
        set(golden -DGOLDEN=${PROJECT_SOURCE_DIR}/${arg_GOLDEN})
        list(APPEND labels golden)
    endif()
    indra_test(${name} LABEL "${labels}"
        COMMAND ${CMAKE_COMMAND} ${golden} -P
                ${PROJECT_SOURCE_DIR}/cmake/jobs_identity.cmake
                $<TARGET_FILE:${target}> ${arg_COMMAND})
endfunction()
