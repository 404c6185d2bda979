"""Build script: a pure-Python package (see pyproject.toml)."""

from setuptools import setup

setup()
