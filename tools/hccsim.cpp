/**
 * @file
 * hccsim: command-line driver of the simulator.  See `hccsim help`.
 */

#include <iostream>

#include "cli/options.hpp"

int
main(int argc, char **argv)
{
    return hcc::cli::runMain({argv + 1, argv + argc}, std::cout,
                             std::cerr);
}
