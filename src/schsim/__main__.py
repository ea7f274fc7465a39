"""``python -m schsim``: the ``schsim`` command without an installed script."""
import sys

from .cli import main

sys.exit(main())
