"""First-quantized QED engine: spinor algebra, tree amplitudes, one-loop
quantities and classical spinning-particle dynamics, in natural units.

`import fqed` loads no layer and no numpy: each name lives on the one
submodule that defines it (`from fqed.processes import amplitude`,
`from fqed import loops`), and a submodule loads when it is imported."""

__version__ = "0.1.0"
