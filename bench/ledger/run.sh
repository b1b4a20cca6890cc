#!/bin/sh
# Builds the ledger from the sources in the current directory and runs
# it with the given arguments (see README.md here).  Build output goes to
# standard error, so the ledger's last line of standard output stays its
# JSON result.  Without the repository's sources the build fails and the
# script exits non-zero.
set -e
dune build --root . --cache=disabled --display=quiet bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
