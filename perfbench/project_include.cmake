# Runs right after the repository's root project() call (passed as
# CMAKE_PROJECT_INCLUDE by run.py) and adds the benchmark driver target to
# that build.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" perfbench)
