"""``python -m prefixsim``: the same front end as the ``prefixsim`` script."""

import sys

from .cli import main

sys.exit(main())
