"""Suite-wide setup.

Hypothesis explains a failing property by importing
`hypothesis.extra._patching`, which imports libcst, and libcst's use of
`mypy_extensions.TypedDict` raises a DeprecationWarning. Under `-W error`
that warning turns into a pytest INTERNALERROR at the first failing
property, and the run stops there. Importing the module once here, with
that one warning ignored, lets the run go on and report every failure. No
warning raised by the code under test is filtered.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis skips the explanation too
        pass
