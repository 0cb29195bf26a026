import program

program.use_checkout_src()
