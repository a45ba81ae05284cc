"""`python -m charpgeom.cli ARGS`: the `charpgeom` command."""

from . import main

raise SystemExit(main())
