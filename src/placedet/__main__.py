"""``python -m placedet``: the same command line as the ``placedet`` script."""

import sys

from .cli import main

sys.exit(main())
