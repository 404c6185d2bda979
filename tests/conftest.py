import sys
from pathlib import Path

from hypothesis import settings

# make the shared oracle helpers importable as a plain module
sys.path.insert(0, str(Path(__file__).parent))

# no per-example deadline: an example's wall time measures the machine
settings.register_profile("kinkbound", deadline=None)
settings.load_profile("kinkbound")
