"""`python -m plchp`: the `plchp` command."""
from .cli import main
raise SystemExit(main())
