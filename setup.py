"""Legacy setup shim; all packaging metadata lives in pyproject.toml."""
from setuptools import setup

setup()
