"""
Pattern families: the shapes we hunt for inside colorings
=========================================================

A pattern family is a finite list of integer polynomial terms.  An
"instance" plugs positive integers into the variables; a coloring
contains the pattern when some instance lands entirely inside one
color class.
"""

from ramseykit import PatternFamily, prefix_product_family, preset_family

# The classic sum triple {x, y, x+y}: three terms in two variables.
schur = preset_family("schur")
print("sum triple:")
for text in schur.canonical_texts():
    print(" ", text)

# Families are hashable by content: the fingerprint ignores the display
# name and the order the terms were written in.
print("fingerprint:", schur.fingerprint())

# Parameterized presets take their size inline: vdw:4 is the 4-term
# arithmetic progression {x, x+y, x+2y, x+3y}.
vdw4 = preset_family("vdw", 4)
print("\n4-term progression:", ", ".join(vdw4.canonical_texts()))

# Any terms you can type are fair game.  Distinctness of the term values
# is optional and recorded in the family itself.
custom = PatternFamily.from_texts(2, ["x0", "x0 + x1", "x0 + x1^2"], "shifted-square")
print("custom family:", ", ".join(custom.canonical_texts()))

# The generator that motivated the package: start from x0 and repeatedly
# multiply in a fresh variable, optionally adding a function of the
# variables consumed so far.  With one round and the choices {0, identity}
# this is exactly the product/sum triple {x, xy, x+y}.
triple = prefix_product_family([["0", "x0"]])
print("\ngenerated triple:", ", ".join(triple.canonical_texts()))
print("same family as the xyxy preset:",
      triple.fingerprint() == preset_family("xyxy").fingerprint())

# Four rounds with {0, full product} available at each step blow up to
# fifteen terms -- every way of cutting the product x0*...*x4 once.
big = prefix_product_family(
    [["0", "x0"], ["0", "x0*x1"], ["0", "x0*x1*x2"], ["0", "x0*x1*x2*x3"]]
)
print(f"\nfour-round family has {len(big.terms)} terms:")
for text in big.canonical_texts():
    print(" ", text)
