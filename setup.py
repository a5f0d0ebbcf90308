"""Setuptools entry point.

Metadata lives here so that legacy editable installs
(``pip install -e . --no-build-isolation``) work in offline environments
where the ``wheel`` package is unavailable.

numpy is a hard dependency: the data generators, the columnar data plane
(``ClusterConfig.data_plane="columnar"``, the default) and the schema
kernels import it at module level, so ``import repro`` needs it.  Its lower
bound tracks the oldest release whose stable integer sorts and structured
indexing the vectorized kernels rely on; the popcount kernels decline to
the record plane on numpy < 2.0, which lacks ``bitwise_count``.  Python
3.10 is the floor because the bit-string code calls ``int.bit_count()``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-shares",
    version="0.6.0",
    description=(
        "Reproduction of 'Upper and Lower Bounds on the Cost of a "
        "Map-Reduce Computation' (Afrati et al., PVLDB 2013)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
)
