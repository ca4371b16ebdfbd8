"""The Kearns–Vazirani name of the classification tree.

The tree learner lives in :mod:`repro.learning.ttt`; this module only
re-exports its tree class under the historical name, for callers that
still import it from here.
"""

from repro.learning.ttt import TTTTree as ClassificationTree

__all__ = ["ClassificationTree"]
