"""The experiment harness: one module per table/figure of the paper.

Every experiment comes in (at least) two sizes:

* ``fast`` — the profile used by the pytest benchmarks: the same pipelines
  and the same comparisons, but with associativities / set counts scaled
  down so a full run finishes in minutes on a laptop;
* ``standard`` / ``full`` — progressively closer to the paper's exact
  parameters (the paper's own runs took up to 36 hours per policy and
  ~4.5 days per synthesis job, so "full" is not something a benchmark suite
  should run by default).

The :mod:`repro.experiments.cli` module exposes all of them as
``repro-experiments <table> --mode fast|standard|full``.  The package
re-exports nothing: import the table's own module (for example
``from repro.experiments.table2 import run_table2``), so a run loads only
the experiment it runs.
"""
