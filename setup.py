"""Packaging for the FCBench reproduction (also a PEP 660 shim).

Installs the ``repro`` package from ``src/`` and the ``fcbench``
console script (see ``repro/cli.py``).
"""

from setuptools import find_packages, setup

setup(
    name="fcbench-repro",
    version="1.0.0",
    description=(
        "Reproduction of FCBench: cross-domain benchmarking of lossless "
        "compression for floating-point data (VLDB 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["fcbench=repro.cli:main"]},
)
